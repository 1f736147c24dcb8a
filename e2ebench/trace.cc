#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace e2ebench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};
std::atomic<int> g_next_thread{1};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
const auto g_epoch = std::chrono::steady_clock::now();

/// Open spans of this thread, innermost last.
thread_local std::vector<const SpanRecord*> t_open;
thread_local int t_thread = 0;

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_epoch).count();
}

int ThreadIndex() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

std::string LayerOf(const std::string& name) { return name.substr(0, name.find('.')); }

}  // namespace

void Tracer::Enable(bool on) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.clear();
  g_enabled.store(on);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Spans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

bool Tracer::WriteChromeTrace(const std::string& path) {
  std::vector<SpanRecord> spans = Spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"attribution\":%s}}%s\n",
                 s.name.c_str(), LayerOf(s.name).c_str(), s.thread, s.start_s * 1e6,
                 s.seconds() * 1e6, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), static_cast<long long>(s.request),
                 s.attribution ? "true" : "false", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, int64_t request) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1);
  record_.thread = ThreadIndex();
  if (!t_open.empty()) {
    record_.parent = t_open.back()->id;
    if (request == 0) request = t_open.back()->request;
  }
  record_.request = request;
  t_open.push_back(&record_);
  record_.start_s = Now();
}

Span::Span(const char* name, int64_t attributed, bool attribution) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1);
  record_.thread = ThreadIndex();
  record_.parent = attributed;
  record_.attribution = attribution;
  record_.start_s = Now();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = Now();
  if (!record_.attribution) t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(record_));
}

std::map<std::string, double> SelfSecondsByLayer(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> self;
  std::unordered_map<int64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    self[s.id] += s.seconds();
    by_id[s.id] = &s;
  }
  // Nested children and attribution spans both leave their parent's self
  // time; an attribution span keeps its own duration under its own layer.
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && by_id.count(s.parent) != 0) self[s.parent] -= s.seconds();
  }
  std::map<std::string, double> by_layer;
  for (const SpanRecord& s : spans) {
    by_layer[LayerOf(s.name)] += std::max(0.0, self[s.id]);
  }
  return by_layer;
}

}  // namespace e2ebench
