#ifndef FLEXVIS_SERVE_ENGINE_H_
#define FLEXVIS_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "viz/session.h"

namespace flexvis::serve {

/// The dashboard interactions the serving tier answers, mirroring the
/// paper's tool surface: hover details (Fig. 10), filtered selection
/// (Fig. 7/8), a pivot table (Fig. 5), and its roll-up summary.
enum class RequestKind {
  kHover,   // one offer's wire encoding, by id
  kSelect,  // offers matching a FlexOfferFilter, one line per offer
  kPivot,   // MDX pivot, full table text
  kRollup,  // MDX pivot, row totals + grand total only
};

struct ServeRequest {
  RequestKind kind = RequestKind::kHover;
  core::FlexOfferId offer = core::kInvalidFlexOfferId;  // kHover
  dw::FlexOfferFilter filter;                           // kSelect
  std::string mdx;                                      // kPivot / kRollup
};

/// Aggregate serving counters for reports.
struct ServeStats {
  CacheStats cache;
  AdmissionStats admission;
  int64_t current_generation = -1;
  size_t live_generations = 0;
  int64_t retired_generations = 0;
  int64_t active_pins = 0;
};

class ServeEngine;

/// One concurrent reader: an admitted session pinned to the generation that
/// was current when it opened. Every query it runs sees exactly that
/// snapshot (snapshot isolation) no matter how many generations the ingest
/// loop publishes meanwhile. Closing (or destroying) the session releases
/// both its generation pin and its admission slot — including mid-query
/// teardown, which leaks neither. Movable, not copyable. A session is NOT
/// internally thread-safe (one session = one reader thread); the engine
/// underneath is.
class ServeSession {
 public:
  ServeSession() = default;
  ServeSession(ServeSession&& other) noexcept;
  ServeSession& operator=(ServeSession&& other) noexcept;
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;
  ~ServeSession() { Close(); }

  bool open() const { return engine_ != nullptr; }
  int64_t generation() const { return pin_.generation(); }

  /// Answers `request` against the pinned snapshot, through the engine's
  /// result cache. Byte-deterministic per (generation, request).
  Result<std::string> Query(const ServeRequest& request);

  /// The interactive main-window model (viz::Session) bound to the pinned
  /// snapshot via shared ownership, created on first use: tabs opened here
  /// keep the generation's warehouse alive even past Close().
  Result<viz::Session*> InteractiveSession();

  /// Releases the generation pin and the admission slot (idempotent).
  void Close();

 private:
  friend class ServeEngine;
  ServeSession(ServeEngine* engine, SnapshotRef pin)
      : engine_(engine), pin_(std::move(pin)) {}

  ServeEngine* engine_ = nullptr;
  SnapshotRef pin_;
  std::unique_ptr<viz::Session> interactive_;
};

/// The concurrent multi-session serving layer (ROADMAP: "a serving layer
/// [where] concurrent dashboard sessions read a consistent snapshot while
/// the online loop ingests"). Composes the three mechanisms:
///
///   GenerationRegistry   MVCC over published warehouse generations —
///                        readers pin, the ingest loop publishes, retired
///                        generations GC after the last unpin;
///   ResultCache          query/result cache keyed (generation, canonical
///                        query text), strictly invalidated below the
///                        current generation on every publish;
///   AdmissionController  session admission under OnlineParams::shed_policy
///                        semantics, shedding or queueing under overload.
///
/// Thread-safe: any number of reader threads may open sessions and query
/// while one publisher thread calls Publish.
class ServeEngine {
 public:
  struct Options {
    size_t cache_entries = 512;
    size_t cache_bytes = 16u << 20;
    /// <= 0 = unlimited concurrent sessions.
    int max_active_sessions = 0;
    int session_queue_capacity = 0;
    sim::ShedPolicy shed_policy = sim::ShedPolicy::kRejectNewest;
    /// Receives one line per shed session (and other admission events).
    std::function<void(const std::string&)> journal;
  };

  explicit ServeEngine(Options options);
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Publishes `db` as the next warehouse generation (see
  /// GenerationRegistry::Publish) and strictly invalidates every cache
  /// entry of older generations. This is what an OnlineParams::publish_hook
  /// calls after a tick's warehouse rebuild. Returns the new generation.
  int64_t Publish(std::shared_ptr<const dw::Database> db);

  /// Opens a session pinned to the current generation, subject to
  /// admission control: blocks while queued, fails kUnavailable when shed,
  /// kFailedPrecondition before the first Publish. `value` is the
  /// session's worth under kRejectLeastValuable.
  Result<ServeSession> OpenSession(double value = 0.0);

  ServeStats stats() const;
  GenerationRegistry& registry() { return registry_; }
  ResultCache& cache() { return cache_; }

 private:
  friend class ServeSession;

  /// Cache key for `request` against `snapshot` (canonical filter / MDX
  /// normalization); error when the request itself is malformed.
  static Result<std::string> CacheKey(const ServeRequest& request,
                                      const WarehouseSnapshot& snapshot);
  /// Uncached evaluation of `request` against `snapshot`.
  static Result<std::string> Execute(const ServeRequest& request,
                                     const WarehouseSnapshot& snapshot);

  Options options_;
  GenerationRegistry registry_;
  ResultCache cache_;
  AdmissionController admission_;
};

}  // namespace flexvis::serve

#endif  // FLEXVIS_SERVE_ENGINE_H_
