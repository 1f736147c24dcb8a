#ifndef FLEXVIS_E2EBENCH_TRACE_H_
#define FLEXVIS_E2EBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// One finished span: a call into a flexvis module, timed from the
/// benchmark's side of the boundary. `name` is "<layer>.<function>".
struct SpanRecord {
  std::string name;
  int64_t id = 0;
  /// Enclosing span on the same thread; 0 at top level. For an attribution
  /// span, the span whose inner work it re-times.
  int64_t parent = 0;
  /// Spans of one served request share this id; 0 outside requests.
  int64_t request = 0;
  int thread = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Re-times, on the same inputs and outside the timed region, work that
  /// `parent` performs inside one library call (the cube build inside
  /// ServeEngine::Publish, aggregation inside Enterprise::RunDayAhead). Its
  /// duration moves from the parent's layer to its own in the self-time
  /// table.
  bool attribution = false;

  double seconds() const { return end_s - start_s; }
};

/// In-memory span recorder. Off by default: a disabled Span costs one
/// relaxed load. Spans are kept in memory and written out once, at exit.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Every span recorded so far, in completion order.
  static std::vector<SpanRecord> Spans();
  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  static bool WriteChromeTrace(const std::string& path);
};

/// RAII span around one call into a layer. Nested spans on the same thread
/// become children; `request` 0 inherits the enclosing span's request id.
class Span {
 public:
  explicit Span(const char* name, int64_t request = 0);
  /// An attribution span for `attributed` (see SpanRecord::attribution).
  Span(const char* name, int64_t attributed, bool attribution);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return record_.id; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

/// Exclusive time per layer: each span's duration minus its children's,
/// attribution spans moved from the attributed span's layer to their own.
std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans);

}  // namespace e2ebench

#endif  // FLEXVIS_E2EBENCH_TRACE_H_
