// Workload program of the end-to-end flexvis benchmark (see README.md beside
// this file). One process runs one workload:
//
//   flexvis_e2e --workload explore-100k|ingest-sharded
//               --seed N --seconds S --trace 0|1 --workdir DIR
//               [--trace-out FILE]
//
// Every workload runs the same product cycle, three stages an operator
// waits on: explore a warehouse (cold open, served queries, LOD pan/zoom,
// full views), plan a day (load -> RunDayAhead -> save), and ingest a
// sharded checkpointed online run (ticks with publishes and a reader, then a
// crash-cut resume). The workload picks which stage runs at full size; the
// other two run a small fixed world so every end-to-end metric is measured
// on every workload. Inputs derive from --seed only. The stages' timed
// operations (tasks) take turns for --seconds of wall time, each in
// proportion to its share (see Run); an end-to-end metric reports its best
// repetition (Samples::Pick). Progress goes to stderr; the last stdout line
// is one JSON object.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/messages.h"
#include "dw/lod.h"
#include "dw/persistence.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "olap/cube.h"
#include "olap/mdx.h"
#include "render/display_list.h"
#include "render/raster_canvas.h"
#include "render/tile.h"
#include "serve/engine.h"
#include "sim/coordinator.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "stats.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "viz/basic_view.h"
#include "viz/dashboard_view.h"
#include "viz/lod_view.h"

namespace fs = std::filesystem;
using namespace flexvis;
using e2ebench::Span;
using e2ebench::Tracer;
using timeutil::TimeInterval;
using timeutil::TimePoint;
using Clock = std::chrono::steady_clock;

namespace {

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Workload shapes ----------------------------------------------------------

/// Stage sizes of one workload. The full-size stage is the workload's
/// subject; the others run a small world (kSmall*) so that their metrics
/// exist and stay cheap.
struct Shape {
  int explore_prosumers = 0;  // x5 offers, one day
  int plan_prosumers = 0;     // x5 offers, one day
  int ingest_prosumers = 0;   // x5 offers, two days
  int queries_per_client = 0;  // per explore.queries batch
  /// Which stage's store feeds disk_bytes_per_offer.
  enum class Store { kExplore, kIngest } store = Store::kExplore;
  /// Each task's share of --seconds (wall time); they add up to 1.
  std::map<std::string, double> shares;
};

constexpr int kFullProsumers = 20000;         // ~10^5 offers
constexpr int kSmallProsumers = 2000;         // ~10^4 offers
constexpr int kFullIngestProsumers = 4000;    // ~2x10^4 offers
constexpr int kSmallIngestProsumers = 600;    // ~3x10^3 offers

std::optional<Shape> ShapeOf(const std::string& workload) {
  Shape shape;
  if (workload == "explore-100k") {
    shape = {kFullProsumers, kSmallProsumers, kSmallIngestProsumers, 1000,
             Shape::Store::kExplore,
             {{"explore.open", 0.26}, {"explore.queries", 0.16}, {"explore.pan_zoom", 0.06},
              {"explore.views", 0.08}, {"plan-day", 0.16}, {"ingest.run", 0.15},
              {"ingest.resume", 0.13}}};
  } else if (workload == "ingest-sharded") {
    shape = {kSmallProsumers, kSmallProsumers, kFullIngestProsumers, 4000,
             Shape::Store::kIngest,
             {{"explore.open", 0.03}, {"explore.queries", 0.04}, {"explore.pan_zoom", 0.02},
              {"explore.views", 0.02}, {"plan-day", 0.09}, {"ingest.run", 0.44},
              {"ingest.resume", 0.36}}};
  } else {
    return std::nullopt;
  }
  return shape;
}

// Fixed settings of the product cycle. They pin every behaviour-changing
// default the benchmark relies on, so a later change to a library default
// shows up as a benchmark change.
constexpr int kClients = 2;                    // closed-loop explore sessions
constexpr int kQueriesPerSession = 50;         // queries before a session reopens
constexpr size_t kKeyPopulation = 4096;        // distinct requests (> 512-entry cache)
constexpr double kZipfExponent = 1.0;
constexpr int kFrames = 2000;                  // pan/zoom script length
constexpr int kShards = 4;
constexpr int kTickMinutes = 60;               // 48 ticks over two days
constexpr int kCompactTicks = 16;
constexpr int kPublishEveryTicks = 6;
constexpr int kCutTick = 37;                   // off a compaction boundary
constexpr int kIngestQueueCapacity = 48;
constexpr int kSetupRepeats = 2;
// The warehouses and the ingest stream are the same for every --seed: their
// size and shape set the work, and plan quality (plan_imbalance_kwh) is a
// property of the world, so a fixed world keeps every metric comparable
// across seeds. --seed drives the clients' draws from the fixed request
// population (which requests, in which order, interleaved how).
constexpr uint64_t kWorldSeed = 20130201;
constexpr int kVerifySamplesPerGeneration = 24;  // per client

TimeInterval Day() {
  const TimePoint day = TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  return TimeInterval(day, day + timeutil::kMinutesPerDay);
}

TimeInterval IngestWindow() {
  const TimePoint day = TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0);
  return TimeInterval(day, day + 2 * timeutil::kMinutesPerDay);
}

// ---- Failure accounting ------------------------------------------------------

/// Counts attempted operations and failures (non-ok Status or a mismatch
/// against an oracle). Thread-safe.
class Ledger {
 public:
  /// Records one attempted operation; false + logged when it failed.
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
    return ok;
  }
  bool CheckStatus(const Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.ToString());
  }
  void Fail(const std::string& what) {
    ++failed_;
    std::lock_guard<std::mutex> lock(mutex_);
    if (logged_++ < 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::mutex mutex_;
  int logged_ = 0;
};

// ---- Measurement helpers -----------------------------------------------------

/// Values of every metric, one per stage repetition (or one per run), keyed
/// by name, and how the reported value is picked from them.
struct Samples {
  /// kBest is the minimum (the maximum for a rate). The host this benchmark
  /// was tuned on slows any CPU-bound step by up to ~40% for 5-10 s at a
  /// time, so a median moves by 20-30% between runs. The slowdowns are
  /// one-sided: the minimum of a fixed step over samples spread across 20 s
  /// or more repeats within ~2%, and it is the cost of the program itself.
  enum class Pick { kMedian, kBest };

  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  std::map<std::string, Pick> picks;

  void Add(const std::string& name, double value, const std::string& unit,
           Pick pick = Pick::kMedian) {
    values[name].push_back(value);
    units[name] = unit;
    picks[name] = pick;
  }

  double Reported(const std::string& name) const {
    const std::vector<double>& v = values.at(name);
    if (picks.at(name) == Pick::kMedian) return *e2ebench::Median(v);
    const bool rate = units.at(name) == "1/s";
    return rate ? *std::max_element(v.begin(), v.end()) : *std::min_element(v.begin(), v.end());
  }
};

/// Per-layer sums of one stage repetition.
struct CycleTotals {
  std::map<std::string, double> sums;
  void Add(const std::string& name, double value) { sums[name] += value; }
  void Set(const std::string& name, double value) { sums[name] = value; }
  double Get(const std::string& name) const {
    auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  }
};

struct ProcIo {
  int64_t rchar = 0, wchar = 0, syscw = 0;
};

ProcIo ReadProcIo() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  int64_t value = 0;
  while (in >> key >> value) {
    if (key == "rchar:") io.rchar = value;
    if (key == "wchar:") io.wchar = value;
    if (key == "syscw:") io.syscw = value;
  }
  return io;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirBytes(const std::string& dir, const std::string& name_filter = "") {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (!name_filter.empty() &&
        it->path().filename().string().find(name_filter) == std::string::npos) {
      continue;
    }
    bytes += it->file_size(ec);
  }
  return bytes;
}

/// The wire text of an offer with "-0" written as "0". Persistence (the
/// warehouse JSONL and the checkpoint snapshots) stores a negative-zero
/// scheduled energy as 0: equal content, different bytes.
std::string ContentText(const core::FlexOffer& offer) {
  std::string text = core::EncodeFlexOffer(offer);
  for (size_t at = text.find("-0"); at != std::string::npos; at = text.find("-0", at + 1)) {
    const bool starts = at > 0 && std::strchr("[:,", text[at - 1]) != nullptr;
    const bool ends = at + 2 < text.size() && std::strchr(",]}", text[at + 2]) != nullptr;
    if (starts && ends) text.erase(at, 1);
  }
  return text;
}

std::string FormatExact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The best time of each step of a multi-step operation over its
/// repetitions so far. The host's slow stretches last seconds, so each step
/// of a long operation meets a fast stretch in some repetition more often
/// than the whole operation does; the sum of the steps' best times is the
/// operation's own cost.
class StepBest {
 public:
  /// Folds one repetition's step times in; returns the sum of the best.
  double Add(const std::vector<double>& steps, const std::string& what, Ledger& ledger) {
    if (best_.empty()) best_ = steps;
    if (ledger.Check(steps.size() == best_.size(), what + ": the number of steps changed")) {
      for (size_t i = 0; i < steps.size(); ++i) best_[i] = std::min(best_[i], steps[i]);
    }
    return std::accumulate(best_.begin(), best_.end(), 0.0);
  }

 private:
  std::vector<double> best_;
};

/// A fixed single-threaded CPU and memory kernel: make 2^18 keys, sort
/// them, fill and probe a 2^15-entry hash map. Returns its wall time.
///
/// The host this benchmark was tuned on also runs everything ~35% slower
/// for minutes at a time, longer than one run: every metric of 4 runs in a
/// row moved together, so no statistic within a run can tell such a run
/// from a slower program. The kernel does not change with the program, so
/// its best time in a run measures the host's speed during that run; the
/// run reports its times scaled by kReferenceSeconds / that best time
/// (TimeScale), that is, at the speed the host had while the benchmark was
/// tuned.
double ReferenceSeconds() {
  static volatile uint64_t sink = 0;
  const auto start = Clock::now();
  std::vector<uint64_t> keys(1 << 18);
  uint64_t x = 0;
  for (uint64_t& key : keys) {
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    key = z ^ (z >> 31);
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<uint64_t, uint32_t> map;
  for (uint32_t i = 0; i < (1u << 15); ++i) map[keys[i * 8u]] = i;
  uint64_t sum = 0;
  for (uint32_t i = 0; i < (1u << 16); ++i) {
    auto it = map.find(keys[i * 4u]);
    if (it != map.end()) sum += it->second;
  }
  sink = sink + sum;
  return Since(start);
}

/// The kernel's best time on the tuning host (4 vCPUs, shared) in its
/// usual state, and how often a run samples it.
constexpr double kReferenceSeconds = 0.023;
constexpr double kReferenceEverySeconds = 0.5;

// ---- Inputs ------------------------------------------------------------------

struct Dimensions {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(3, 2, 2, 4);

  Status Register(dw::Database& db) const {
    FLEXVIS_RETURN_IF_ERROR(atlas.RegisterWithDatabase(db));
    return topology.RegisterWithDatabase(db);
  }
};

Result<sim::Workload> Generate(const Dimensions& dims, uint64_t seed, int prosumers,
                               const TimeInterval& horizon) {
  sim::WorkloadGenerator generator(&dims.atlas, &dims.topology);
  sim::WorkloadParams params;
  params.seed = seed;
  params.num_prosumers = prosumers;
  params.offers_per_prosumer = 5.0;
  params.horizon = horizon;
  return generator.Generate(params);
}

/// A warehouse directory written in set-up, as `flexvis generate` writes it.
struct Warehouse {
  std::string dir;
  size_t offers = 0;
  uint64_t bytes = 0;
};

/// Writes the warehouse; `offers`, when given, receives its offers.
Result<Warehouse> WriteWarehouse(const Dimensions& dims, uint64_t seed, int prosumers,
                                 const std::string& dir,
                                 std::vector<core::FlexOffer>* offers = nullptr) {
  Result<sim::Workload> workload = Generate(dims, seed, prosumers, Day());
  if (!workload.ok()) return workload.status();
  dw::Database db;
  FLEXVIS_RETURN_IF_ERROR(dims.Register(db));
  FLEXVIS_RETURN_IF_ERROR(sim::WorkloadGenerator::LoadIntoDatabase(*workload, db));
  std::error_code ec;
  fs::remove_all(dir, ec);
  FLEXVIS_RETURN_IF_ERROR(dw::SaveDatabase(db, dir));
  if (offers != nullptr) *offers = std::move(workload->offers);
  return Warehouse{dir, db.NumFlexOffers(), DirBytes(dir)};
}

/// The ingest stream: a two-day population whose prosumer ids are remapped
/// so half of the prosumers hash to shard 0 of kShards. That shard's bounded
/// ingest queue overflows, and the rebalance controller must move active
/// prosumers off it mid-run.
Result<std::vector<core::FlexOffer>> MakeIngestOffers(const Dimensions& dims, uint64_t seed,
                                                      int prosumers) {
  Result<sim::Workload> workload = Generate(dims, seed, prosumers, IngestWindow());
  if (!workload.ok()) return workload.status();
  sim::ShardRouter probe(kShards, sim::ShardPolicy::kHash);
  std::map<core::ProsumerId, core::ProsumerId> remap;
  core::ProsumerId hot = 1;
  core::ProsumerId cold = 10'000'001;  // a range disjoint from the hot ids
  auto next_id = [&](core::ProsumerId* candidate, bool want_hot) {
    while (true) {
      const core::ProsumerId id = (*candidate)++;
      const bool is_hot = probe.ShardOfProsumer(id, core::kInvalidRegionId,
                                                core::kInvalidGridNodeId) == 0;
      if (is_hot == want_hot) return id;
    }
  };
  std::vector<core::FlexOffer> offers = std::move(workload->offers);
  for (core::FlexOffer& offer : offers) {
    auto [it, inserted] = remap.try_emplace(offer.prosumer, 0);
    if (inserted) {
      it->second = remap.size() % 2 == 1 ? next_id(&hot, true) : next_id(&cold, false);
    }
    offer.prosumer = it->second;
  }
  return offers;
}

// ---- The served request mix --------------------------------------------------

/// A fixed population of kKeyPopulation distinct requests, drawn with a
/// Zipf-skewed popularity: hover by id (Fig. 10), select by legal entity +
/// interval (Fig. 7), and pivot / roll-up MDX over dimension pairs with
/// slicers (Fig. 5). The population exceeds the 512-entry result cache, so
/// a session sees hits and evictions.
class RequestMix {
 public:
  RequestMix(const std::vector<core::FlexOffer>& offers, const TimeInterval& horizon,
             uint64_t seed) {
    const std::vector<std::string> mdx = MdxTexts(horizon);
    Rng rng(seed ^ 0x5eedf00dULL);
    const size_t n = offers.size();
    for (size_t rank = 0; rank < kKeyPopulation; ++rank) {
      serve::ServeRequest request;
      const core::FlexOffer& offer = offers[rng.NextUint64() % n];
      switch (rank % 8) {
        case 0: case 3: case 6:
          request.kind = serve::RequestKind::kHover;
          request.offer = offer.id;
          break;
        case 1: case 4: {
          request.kind = serve::RequestKind::kSelect;
          request.filter.prosumer = offer.prosumer;
          const int64_t quarter = horizon.duration_minutes() / 4;
          const TimePoint start = horizon.start + quarter * (rng.NextUint64() % 4);
          request.filter.window = TimeInterval(start, start + quarter);
          break;
        }
        case 2: case 5:
          request.kind = serve::RequestKind::kPivot;
          request.mdx = mdx[rng.NextUint64() % mdx.size()];
          break;
        default:
          request.kind = serve::RequestKind::kRollup;
          request.mdx = mdx[rng.NextUint64() % mdx.size()];
          break;
      }
      requests_.push_back(std::move(request));
    }
    double total = 0.0;
    for (size_t rank = 0; rank < kKeyPopulation; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  const serve::ServeRequest& Draw(Rng& rng) const {
    const double u = rng.NextDouble();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return requests_[std::min(rank, requests_.size() - 1)];
  }

  /// Every distinct MDX text of the population.
  static std::vector<std::string> MdxTexts(const TimeInterval& horizon) {
    const std::vector<std::string> columns = {
        "{ Measures.Count }",      "{ Measures.ScheduledEnergy }",
        "{ Measures.EnergyFlexibility }", "{ EnergyType.Class.Members }",
        "{ State.Members }",       "{ Direction.Members }"};
    const std::vector<std::string> rows = {
        "{ Prosumer.Type.Members }", "{ Prosumer.Role.Members }",
        "{ Geography.City.Members }", "{ Geography.Region.Members }",
        "{ Appliance.Members }",      "{ Grid.Feeder.Members }"};
    const std::string day = horizon.start.ToString().substr(0, 10);
    const std::vector<std::string> slicers = {
        "", " WHERE ( State.[Accepted] )", " WHERE ( State.[Assigned] )",
        " WHERE ( Geography.[West Denmark] )",
        " WHERE ( Time.[" + day + " 00:00 : " + day + " 12:00] )"};
    std::vector<std::string> texts;
    for (const std::string& c : columns) {
      for (const std::string& r : rows) {
        for (const std::string& s : slicers) {
          if (c.find("State") != std::string::npos && s.find("State") != std::string::npos) {
            continue;
          }
          texts.push_back("SELECT " + c + " ON COLUMNS, " + r + " ON ROWS FROM [FlexOffers]" + s);
        }
      }
    }
    return texts;
  }

 private:
  std::vector<serve::ServeRequest> requests_;
  std::vector<double> cdf_;
};

/// A served answer kept for the cold-recompute check.
struct ServedSample {
  int64_t generation = -1;
  serve::ServeRequest request;
  std::string answer;
};

/// Re-answers `samples` on a fresh engine over `db` (cold cache, freshly
/// built cube and pyramid) and byte-compares.
void VerifyServed(const std::shared_ptr<const dw::Database>& db,
                  const std::vector<ServedSample>& samples, const std::string& what,
                  Ledger& ledger) {
  if (samples.empty()) return;
  serve::ServeEngine fresh(serve::ServeEngine::Options{});
  fresh.Publish(db);
  Result<serve::ServeSession> session = fresh.OpenSession();
  if (!ledger.CheckStatus(session.status(), what + " fresh session")) return;
  for (const ServedSample& sample : samples) {
    Result<std::string> cold = session->Query(sample.request);
    ledger.Check(cold.ok() && *cold == sample.answer,
                 what + ": served answer differs from a cold recompute");
  }
}

/// One closed-loop client: opens a session, issues queries back to back,
/// reopens every kQueriesPerSession queries (picking up new generations).
struct ClientResult {
  std::vector<double> latency_ms;
  std::vector<double> hit_us;
  std::vector<double> miss_ms;
  std::vector<double> open_us;
  std::vector<ServedSample> samples;
};

void RunClient(serve::ServeEngine& engine, const RequestMix& mix, uint64_t seed,
               int client, int max_queries, const std::atomic<bool>* stop, Ledger& ledger,
               ClientResult* out) {
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(client) * 7919ULL + 17);
  serve::ServeSession session;
  std::map<int64_t, int> sampled;  // generation -> answers kept
  const bool traced = Tracer::enabled();
  for (int q = 0; max_queries < 0 || q < max_queries; ++q) {
    if (stop != nullptr && stop->load()) break;
    if (q % kQueriesPerSession == 0) {
      session.Close();
      const auto open_start = Clock::now();
      Result<serve::ServeSession> opened = [&] {
        Span span("serve.OpenSession");
        return engine.OpenSession();
      }();
      out->open_us.push_back(Since(open_start) * 1e6);
      if (!ledger.CheckStatus(opened.status(), "open session")) return;
      session = *std::move(opened);
    }
    const serve::ServeRequest& request = mix.Draw(rng);
    const serve::CacheStats before = traced ? engine.cache().stats() : serve::CacheStats{};
    const auto start = Clock::now();
    Result<std::string> answer = [&] {
      Span span("serve.Query", (static_cast<int64_t>(client) << 32) + q + 1);
      return session.Query(request);
    }();
    const double seconds = Since(start);
    if (!ledger.CheckStatus(answer.status(), "served query")) continue;
    out->latency_ms.push_back(seconds * 1e3);
    if (traced) {
      // Two clients share the cache, so a counter delta attributes this
      // query only when exactly one of hit/miss moved.
      const serve::CacheStats after = engine.cache().stats();
      const int64_t hits = after.hits - before.hits;
      const int64_t misses = after.misses - before.misses;
      if (hits == 1 && misses == 0) out->hit_us.push_back(seconds * 1e6);
      if (misses == 1 && hits == 0) out->miss_ms.push_back(seconds * 1e3);
    }
    if (q % 16 == 7 && sampled[session.generation()]++ < kVerifySamplesPerGeneration) {
      out->samples.push_back(ServedSample{session.generation(), request, *answer});
    }
  }
}

// ---- Stage: explore ----------------------------------------------------------

struct TaskContext {
  uint64_t seed = 0;
  int rep = 0;
  bool verify = false;  // run the expensive oracles (first repetition only)
  Ledger* ledger = nullptr;
  CycleTotals* totals = nullptr;
};

struct QueryOutcome {
  std::vector<double> latency_ms;
  double wall_s = 0.0;
};

/// The explore warehouse as the latest cold open left it: the database and
/// the engine that publishes it. Queries, pan/zoom and the views run
/// against it; the next cold open replaces it.
struct ExploreState {
  std::shared_ptr<const dw::Database> db;
  std::unique_ptr<serve::ServeEngine> engine;
};

/// The deterministic LOD pan/zoom script over a published pyramid: walk the
/// levels coarse to fine and back, panning a viewport in half-tile steps;
/// every frame composes the visible buckets and drains two background fills.
/// Returns frame wall-time in ms; checks the drained compose against a cold
/// strip render.
double PanZoom(const dw::LodPyramid& pyramid, int64_t generation, const TaskContext& ctx) {
  render::TileConfig config;
  config.buckets_per_tile = 8;
  config.px_per_bucket = 32;
  config.height_px = 240;
  config.max_tiles = 12;
  viz::LodStripPainter painter(&pyramid, viz::LodStripPainter::Kind::kDensity);
  render::TiledStrip strip(config);
  strip.SetGeneration(&painter, generation);
  const int view_buckets = 60;  // a 1920 px wide strip
  render::RasterCanvas target(view_buckets * config.px_per_bucket, config.height_px);

  if (!ctx.ledger->Check(pyramid.num_levels() > 0, "empty LOD pyramid")) return 0.0;
  const int top = std::min(pyramid.num_levels() - 1, 5);
  std::vector<int> ladder;
  for (int level = top; level >= 0; --level) ladder.push_back(level);
  for (int level = 1; level < top; ++level) ladder.push_back(level);

  std::vector<double> compose_us;
  double fill_s = 0.0;
  int level = ladder.front();
  int64_t begin = 0;
  const auto start = Clock::now();
  for (int frame = 0; frame < kFrames; ++frame) {
    if (frame % 40 == 0) {
      level = ladder[static_cast<size_t>(frame / 40) % ladder.size()];
      begin = 0;
    }
    const int64_t level_buckets = static_cast<int64_t>(pyramid.level(level).buckets.size());
    const auto compose_start = Clock::now();
    {
      Span span("render.Compose");
      strip.Compose(target, 0, 0, level, begin, begin + view_buckets);
    }
    const auto fill_start = Clock::now();
    compose_us.push_back(std::chrono::duration<double>(fill_start - compose_start).count() * 1e6);
    {
      Span span("render.FillPending");
      strip.FillPending(2);
    }
    fill_s += Since(fill_start);
    begin += config.buckets_per_tile / 2;
    if (begin + view_buckets > level_buckets + config.buckets_per_tile) begin = 0;
  }
  const double frame_ms = Since(start) * 1e3 / kFrames;

  // Oracle: after the fills drain, composing the last viewport equals a
  // cold, tile-less render of the same buckets.
  while (strip.HasPending()) strip.FillPending(64);
  render::RasterCanvas composed(target.pixel_width(), target.pixel_height());
  strip.Compose(composed, 0, 0, level, begin, begin + view_buckets, /*allow_placeholder=*/false);
  render::DisplayList scene(composed.pixel_width(), composed.pixel_height());
  painter.PaintBuckets(scene, level, begin, view_buckets, config.px_per_bucket,
                       config.height_px);
  render::RasterCanvas cold(composed.pixel_width(), composed.pixel_height());
  scene.ReplayAll(cold);
  const size_t bytes = static_cast<size_t>(cold.pixel_width()) * cold.pixel_height() * 3;
  ctx.ledger->Check(std::memcmp(composed.raw_data(), cold.raw_data(), bytes) == 0,
                    "tile compose differs from a cold strip render");

  const render::TileStats stats = strip.stats();
  ctx.totals->Add("render.compose_us", *e2ebench::Median(compose_us));
  ctx.totals->Add("render.fill_ms", fill_s * 1e3 / kFrames);
  ctx.totals->Add("render.tile_lookups", static_cast<double>(stats.hits + stats.misses));
  ctx.totals->Add("render.tile_hits", static_cast<double>(stats.hits));
  return frame_ms;
}

/// Cold open: loads the warehouse and publishes it (cube + LOD pyramid)
/// into a fresh engine, which replaces `state`. Returns the times of its
/// steps: load, publish.
Result<std::vector<double>> OpenExplore(const Warehouse& warehouse, const TaskContext& ctx,
                           ExploreState* state) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  state->engine.reset();
  state->db.reset();
  const ProcIo io_before = ReadProcIo();
  const auto open_start = Clock::now();
  Result<dw::Database> loaded = [&] {
    Span span("dw.LoadDatabase");
    return dw::LoadDatabase(warehouse.dir);
  }();
  const auto publish_start = Clock::now();
  const ProcIo io_after = ReadProcIo();
  if (!ledger.CheckStatus(loaded.status(), "explore LoadDatabase")) return loaded.status();
  auto db = std::make_shared<const dw::Database>(*std::move(loaded));
  auto engine = std::make_unique<serve::ServeEngine>(serve::ServeEngine::Options{});
  int64_t publish_span = 0;
  {
    Span span("serve.Publish");
    publish_span = span.id();
    engine->Publish(db);
  }
  const auto open_end = Clock::now();
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  totals.Add("dw.load_s", seconds(open_start, publish_start));
  totals.Add("serve.publish_s", seconds(publish_start, open_end));
  totals.Add("dw.loaded_offers", static_cast<double>(db->NumFlexOffers()));
  totals.Add("dw.read_bytes", static_cast<double>(io_after.rchar - io_before.rchar));

  if (Tracer::enabled()) {
    // Attribution of the work Publish does inside one call, re-timed on the
    // same database outside the timed region.
    const auto cube_start = Clock::now();
    olap::Cube cube(db.get());
    {
      Span span("olap.CubeBuild", publish_span, true);
      ledger.CheckStatus(cube.AddStandardDimensions(), "cube dimensions");
    }
    totals.Add("olap.cube_build_s", Since(cube_start));
    const auto lod_start = Clock::now();
    {
      Span span("dw.BuildLodPyramid", publish_span, true);
      ledger.CheckStatus(dw::BuildLodPyramid(*db, dw::FlexOfferFilter{}).status(), "lod build");
    }
    totals.Add("dw.lod_build_s", Since(lod_start));
    // Cold MDX parse and pivot evaluation (the work of a served miss).
    std::vector<double> parse_us;
    std::vector<double> pivot_ms;
    for (const std::string& text : RequestMix::MdxTexts(Day())) {
      const auto parse_start = Clock::now();
      Result<olap::CubeQuery> query = olap::ParseMdx(text, cube);
      parse_us.push_back(Since(parse_start) * 1e6);
      if (!ledger.CheckStatus(query.status(), "mdx parse")) continue;
      const auto pivot_start = Clock::now();
      ledger.CheckStatus(cube.Evaluate(*query).status(), "pivot");
      pivot_ms.push_back(Since(pivot_start) * 1e3);
    }
    totals.Add("olap.mdx_parse_us", e2ebench::Median(parse_us).value_or(0.0));
    const double pivot = e2ebench::Median(pivot_ms).value_or(0.0);
    totals.Add("olap.pivot_cold_ms", pivot);
    totals.Add("olap.facts_per_s",
               pivot > 0.0 ? static_cast<double>(db->NumFlexOffers()) / (pivot / 1e3) : 0.0);
  }
  state->db = std::move(db);
  state->engine = std::move(engine);
  return std::vector<double>{seconds(open_start, publish_start),
                             seconds(publish_start, open_end)};
}

/// Two closed-loop sessions against the opened engine. Its result cache
/// carries over between calls, as it does for an analyst's next session.
QueryOutcome ExploreQueries(const ExploreState& state, const RequestMix& mix,
                            int queries_per_client, const TaskContext& ctx) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  serve::ServeEngine& engine = *state.engine;
  const serve::CacheStats before = engine.stats().cache;
  std::vector<ClientResult> clients(kClients);
  QueryOutcome outcome;
  const auto query_start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        RunClient(engine, mix, ctx.seed + static_cast<uint64_t>(ctx.rep) * 31, c,
                  queries_per_client, nullptr, ledger, &clients[static_cast<size_t>(c)]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  outcome.wall_s = Since(query_start);
  std::vector<ServedSample> samples;
  for (ClientResult& client : clients) {
    outcome.latency_ms.insert(outcome.latency_ms.end(), client.latency_ms.begin(),
                              client.latency_ms.end());
    samples.insert(samples.end(), client.samples.begin(), client.samples.end());
    for (double v : client.hit_us) totals.Add("serve.hit_us_sum", v);
    for (double v : client.miss_ms) totals.Add("serve.miss_ms_sum", v);
    totals.Add("serve.hit_count", static_cast<double>(client.hit_us.size()));
    totals.Add("serve.miss_count", static_cast<double>(client.miss_ms.size()));
    for (double v : client.open_us) totals.Add("serve.open_us_sum", v);
    totals.Add("serve.open_count", static_cast<double>(client.open_us.size()));
  }
  const serve::ServeStats stats = engine.stats();
  totals.Add("serve.cache_hits", static_cast<double>(stats.cache.hits - before.hits));
  totals.Add("serve.cache_lookups", static_cast<double>(stats.cache.hits + stats.cache.misses -
                                                        before.hits - before.misses));
  totals.Add("serve.cache_evictions", static_cast<double>(stats.cache.evictions - before.evictions));
  totals.Add("serve.cache_invalidations",
             static_cast<double>(stats.cache.invalidated - before.invalidated));
  ledger.Check(stats.active_pins == 0, "explore sessions leaked pins");
  if (ctx.verify) VerifyServed(state.db, samples, "explore", ledger);
  return outcome;
}

/// LOD pan/zoom over the opened engine's current pyramid.
Result<double> ExplorePanZoom(const ExploreState& state, const TaskContext& ctx) {
  serve::SnapshotRef pin = state.engine->registry().PinCurrent();
  if (!ctx.ledger->Check(!pin.empty(), "no published generation")) {
    return InternalError("no published generation");
  }
  return PanZoom(pin->lod, pin.generation(), ctx);
}

/// The full views, as `flexvis render` draws them, rasterized. Returns the
/// times of its steps: select, basic scene, dashboard scene, raster replay.
Result<std::vector<double>> RenderViews(const dw::Database& db, const TaskContext& ctx) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  const auto view_start = Clock::now();
  Result<std::vector<core::FlexOffer>> offers = [&] {
    Span span("dw.SelectFlexOffers");
    return db.SelectFlexOffers(dw::FlexOfferFilter{});
  }();
  const auto basic_start = Clock::now();
  if (!ledger.CheckStatus(offers.status(), "select all")) return offers.status();
  viz::BasicViewResult basic = [&] {
    Span span("viz.RenderBasicView");
    return viz::RenderBasicView(*offers, viz::BasicViewOptions{});
  }();
  const auto dashboard_start = Clock::now();
  viz::DashboardResult dashboard = [&] {
    Span span("viz.RenderDashboardView");
    return viz::RenderDashboardView(*offers, viz::DashboardOptions{});
  }();
  const auto replay_start = Clock::now();
  std::vector<std::unique_ptr<render::RasterCanvas>> rasters;
  for (const render::DisplayList* scene : {basic.scene.get(), dashboard.scene.get()}) {
    Span span("render.ReplayAll");
    rasters.push_back(std::make_unique<render::RasterCanvas>(
        static_cast<int>(scene->width()), static_cast<int>(scene->height())));
    scene->ReplayAll(*rasters.back());
  }
  const auto view_end = Clock::now();
  size_t painted = 0;
  for (const auto& raster : rasters) {
    painted += static_cast<size_t>(raster->pixel_width()) * raster->pixel_height() -
               raster->CountPixels(render::Color(255, 255, 255));
  }
  ledger.Check(offers->size() == db.NumFlexOffers() && painted > 0,
               "views did not draw every offer");
  auto seconds = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  };
  totals.Add("dw.select_s", seconds(view_start, basic_start));
  totals.Add("viz.basic_view_s", seconds(basic_start, dashboard_start));
  totals.Add("viz.dashboard_view_s", seconds(dashboard_start, replay_start));
  totals.Add("render.raster_replay_s", seconds(replay_start, view_end));
  return std::vector<double>{seconds(view_start, basic_start),
                             seconds(basic_start, dashboard_start),
                             seconds(dashboard_start, replay_start),
                             seconds(replay_start, view_end)};
}

// ---- Stage: plan a day -------------------------------------------------------

struct PlanResult {
  double plan_day_s = 0.0;
  std::vector<double> steps;  // load, RunDayAhead, save
  double imbalance_kwh = 0.0;
  double aggregation_ratio = 0.0;
};

std::vector<std::string> EncodeAll(const dw::Database& db, Ledger& ledger) {
  std::vector<std::string> lines;
  Result<std::vector<core::FlexOffer>> offers = db.SelectFlexOffers(dw::FlexOfferFilter{});
  if (!ledger.CheckStatus(offers.status(), "select for reload check")) return lines;
  for (const core::FlexOffer& offer : *offers) lines.push_back(ContentText(offer));
  return lines;
}

Result<PlanResult> RunPlanDay(const Warehouse& warehouse, const std::string& work_dir,
                              const TaskContext& ctx) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  PlanResult result;

  // A fresh, untimed copy: plan writes back into its warehouse.
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::copy(warehouse.dir, work_dir, fs::copy_options::recursive, ec);
  if (!ledger.Check(!ec, "copy warehouse: " + ec.message())) return InternalError(ec.message());

  sim::EnterpriseParams params;
  params.plan_on_forecast = true;
  sim::Enterprise enterprise(params);

  const ProcIo io0 = ReadProcIo();
  const auto start = Clock::now();
  Result<dw::Database> db = [&] {
    Span span("dw.LoadDatabase");
    return dw::LoadDatabase(work_dir);
  }();
  const double load_s = Since(start);
  const ProcIo io1 = ReadProcIo();
  if (!ledger.CheckStatus(db.status(), "plan LoadDatabase")) return db.status();
  const double loaded_offers = static_cast<double>(db->NumFlexOffers());
  int64_t plan_span = 0;
  const auto plan_start = Clock::now();
  Result<sim::PlanningReport> report = [&] {
    Span span("sim.RunDayAhead");
    plan_span = span.id();
    return enterprise.RunDayAhead(*db, Day());
  }();
  const double plan_s = Since(plan_start);
  if (!ledger.CheckStatus(report.status(), "RunDayAhead")) return report.status();
  const ProcIo io2 = ReadProcIo();
  const auto save_start = Clock::now();
  Status saved = [&] {
    Span span("dw.SaveDatabase");
    return dw::SaveDatabase(*db, work_dir);
  }();
  const double save_s = Since(save_start);
  result.plan_day_s = Since(start);
  result.steps = {load_s, plan_s, save_s};
  const ProcIo io3 = ReadProcIo();
  if (!ledger.CheckStatus(saved, "SaveDatabase")) return saved;

  result.imbalance_kwh = report->imbalance_after_kwh;
  result.aggregation_ratio = report->aggregates_built > 0
                                 ? static_cast<double>(report->offers_in) /
                                       static_cast<double>(report->aggregates_built)
                                 : 0.0;
  totals.Add("dw.load_s", load_s);
  totals.Add("dw.loaded_offers", loaded_offers);
  totals.Add("dw.read_bytes", static_cast<double>(io1.rchar - io0.rchar));
  totals.Add("dw.save_s", save_s);
  totals.Add("dw.saved_offers", static_cast<double>(db->NumFlexOffers()));
  totals.Add("dw.write_bytes", static_cast<double>(io3.wchar - io2.wchar));
  totals.Add("sim.plan_horizon_s", plan_s);
  totals.Add("core.aggregation_ratio", result.aggregation_ratio);

  // Output checks: a nominal run, settlement conserved, a real plan.
  const sim::Settlement& settlement = report->settlement;
  ledger.Check(std::abs(settlement.total_cost_eur -
                        (settlement.spot_cost_eur + settlement.imbalance_cost_eur)) <= 1e-6,
               "plan settlement is not conserved");
  ledger.Check(report->degraded_stages.empty(), "plan ran degraded");
  ledger.Check(report->offers_in > 0 && report->aggregates_built > 0 &&
                   std::isfinite(report->imbalance_after_kwh),
               "plan produced no aggregates");

  if (Tracer::enabled()) {
    // Attribution of the core work RunDayAhead does inside one call,
    // re-timed on the same raw offers outside the timed region.
    dw::FlexOfferFilter raw;
    raw.window = Day();
    raw.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyRaw;
    Result<std::vector<core::FlexOffer>> offers = db->SelectFlexOffers(raw);
    if (ledger.CheckStatus(offers.status(), "select raw offers")) {
      core::FlexOfferId next_id = 0;
      for (core::FlexOffer& offer : *offers) {
        offer.state = core::FlexOfferState::kOffered;
        offer.schedule.reset();
        next_id = std::max(next_id, offer.id);
      }
      next_id += 1'000'000;
      const auto aggregate_start = Clock::now();
      core::AggregationResult aggregated = [&] {
        Span span("core.Aggregate", plan_span, true);
        return core::Aggregator(params.aggregation).Aggregate(*offers, &next_id);
      }();
      totals.Add("core.aggregate_s", Since(aggregate_start));
      const auto schedule_start = Clock::now();
      {
        Span span("core.SchedulerPlan", plan_span, true);
        core::Scheduler(params.scheduler).Plan(aggregated.aggregates, report->target);
      }
      totals.Add("core.schedule_s", Since(schedule_start));
    }
  }

  if (ctx.verify) {
    // The saved warehouse reloads with identical content.
    Result<dw::Database> reloaded = dw::LoadDatabase(work_dir);
    if (ledger.CheckStatus(reloaded.status(), "reload after save")) {
      ledger.Check(EncodeAll(*reloaded, ledger) == EncodeAll(*db, ledger) &&
                       reloaded->prosumers().size() == db->prosumers().size(),
                   "reloaded warehouse differs from the saved one");
    }
  }
  return result;
}

// ---- Stage: sharded ingest ---------------------------------------------------

struct IngestResult {
  std::vector<double> tick_s;  // per tick, its publish included
  double loop_s = 0.0;         // wall time of the tick loop
  uint64_t checkpoint_bytes = 0;
  int64_t plans = 0;
};

struct ResumeResult {
  double resume_s = 0.0;
  int64_t replayed = 0;
  int64_t folded = 0;
};

/// The uninterrupted run's merged report, kept from the first ingest run
/// with its offers as wire text: every later run must repeat it, and every
/// resume must end in it.
struct IngestState {
  std::optional<sim::MergedOnlineReport> baseline;
  std::vector<std::string> baseline_offers;
};

sim::CoordinatorParams IngestParams() {
  sim::CoordinatorParams params;
  params.num_shards = kShards;
  params.policy = sim::ShardPolicy::kHash;
  params.online.tick_minutes = kTickMinutes;
  params.online.ingest_queue_capacity = kIngestQueueCapacity;
  params.online.compact_ticks = kCompactTicks;
  // One plan per run: the controller fires once shard 0 has shed for two
  // ticks, then stays cooling down. Later plans would put migration records
  // into the journal tail the resume replays, and ResumeSharded currently
  // fails on those (DATA_LOSS "journal names flex-offer ... absent from
  // snapshot"); the benchmark keeps to inputs on which every operation
  // succeeds.
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.cooldown_ticks = 1000;
  rebalance.max_moves = 4;
  params.rebalance = rebalance;
  return params;
}

/// Whether `b` equals the baseline run in `state`.
bool SameRun(const IngestState& state, const sim::MergedOnlineReport& b) {
  if (!state.baseline.has_value()) return false;
  const sim::MergedOnlineReport& a = *state.baseline;
  if (a.global.outbox != b.global.outbox || a.global.offers.size() != b.global.offers.size() ||
      a.global.accepted != b.global.accepted || a.global.rejected != b.global.rejected ||
      a.global.assigned != b.global.assigned || a.global.shed_offers != b.global.shed_offers ||
      a.global.imbalance_kwh != b.global.imbalance_kwh || a.epoch != b.epoch ||
      a.num_shards != b.num_shards) {
    return false;
  }
  for (size_t i = 0; i < a.global.offers.size(); ++i) {
    if (state.baseline_offers[i] != ContentText(b.global.offers[i])) {
      return false;
    }
  }
  return true;
}

/// One uninterrupted checkpointed run of the stream with publishes and a
/// reader beside the ticks.
Result<IngestResult> RunIngest(const Dimensions& dims, const std::vector<core::FlexOffer>& offers,
                               const RequestMix& mix, const std::string& work_dir,
                               const TaskContext& ctx, IngestState* state) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  IngestResult result;
  const std::string dir = work_dir + "/run";
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);

  // The publish hook sees each shard's post-tick state; on publish ticks it
  // snapshots the offers so the bench can publish the merged current view.
  std::mutex capture_mutex;
  std::unordered_map<core::FlexOfferId, core::FlexOffer> current;  // guarded
  std::atomic<bool> capture{false};
  sim::CoordinatorParams params = IngestParams();
  params.online.publish_hook = [&](const sim::OnlineLoopState& state) {
    if (!capture.load()) return;
    std::lock_guard<std::mutex> lock(capture_mutex);
    for (const core::FlexOffer& offer : state.report.offers) current[offer.id] = offer;
  };

  sim::Coordinator coordinator(params);
  if (!ledger.CheckStatus(coordinator.BeginCheckpointed(offers, IngestWindow(), dir),
                          "BeginCheckpointed")) {
    return InternalError("BeginCheckpointed failed");
  }

  serve::ServeEngine engine(serve::ServeEngine::Options{});
  std::map<int64_t, std::shared_ptr<const dw::Database>> generations;
  std::map<int64_t, int64_t> publish_spans;  // generation -> serve.Publish span
  auto publish = [&]() -> Status {
    std::vector<core::FlexOffer> merged;
    {
      std::lock_guard<std::mutex> lock(capture_mutex);
      merged.reserve(current.size());
      for (auto& [id, offer] : current) merged.push_back(offer);
    }
    std::sort(merged.begin(), merged.end(),
              [](const core::FlexOffer& a, const core::FlexOffer& b) { return a.id < b.id; });
    auto db = std::make_shared<dw::Database>();
    FLEXVIS_RETURN_IF_ERROR(dims.Register(*db));
    {
      Span span("dw.LoadFlexOffers");
      FLEXVIS_RETURN_IF_ERROR(db->LoadFlexOffers(merged));
    }
    const auto publish_start = Clock::now();
    int64_t generation = 0;
    {
      Span span("serve.Publish");
      generation = engine.Publish(db);
      publish_spans[generation] = span.id();
    }
    totals.Add("serve.publish_s", Since(publish_start));
    generations[generation] = std::move(db);
    return OkStatus();
  };
  // Generation 0 is the pre-run state, so the reader has data from tick 0.
  capture.store(true);
  {
    std::lock_guard<std::mutex> lock(capture_mutex);
    for (const core::FlexOffer& offer : offers) current[offer.id] = offer;
  }
  if (!ledger.CheckStatus(publish(), "initial publish")) return InternalError("publish");

  std::atomic<bool> stop{false};
  ClientResult reader;
  const auto loop_start = Clock::now();
  std::thread reader_thread([&] {
    RunClient(engine, mix, ctx.seed + static_cast<uint64_t>(ctx.rep) * 131, 7, -1, &stop,
              ledger, &reader);
  });

  const ProcIo io_before = ReadProcIo();
  int tick = 0;
  Status loop_status;
  while (!coordinator.Done()) {
    const bool publish_tick = (tick + 1) % kPublishEveryTicks == 0;
    capture.store(publish_tick);
    const auto tick_start = Clock::now();
    {
      Span span("sim.Tick");
      loop_status = coordinator.Tick();
    }
    if (!loop_status.ok()) break;
    if (publish_tick) loop_status = publish();
    const double seconds = Since(tick_start);
    if (!loop_status.ok()) break;
    result.tick_s.push_back(seconds);
    ++tick;
  }
  const ProcIo io_after = ReadProcIo();
  stop.store(true);
  reader_thread.join();
  result.loop_s = Since(loop_start);
  if (!ledger.CheckStatus(loop_status, "coordinator tick loop")) return loop_status;

  Result<sim::MergedOnlineReport> baseline = coordinator.Finish();
  if (!ledger.CheckStatus(baseline.status(), "coordinator Finish")) return baseline.status();
  result.plans = coordinator.plans_executed();
  result.checkpoint_bytes = DirBytes(dir);

  // Conservation: every input offer comes back once, in global input order.
  bool conserved = baseline->global.offers.size() == offers.size();
  for (size_t i = 0; conserved && i < offers.size(); ++i) {
    conserved = baseline->global.offers[i].id == offers[i].id;
  }
  ledger.Check(conserved, "ingest run lost or reordered offers");
  ledger.Check(result.plans >= 1 && baseline->epoch >= 1,
               "the rebalance controller executed no active migration");

  const serve::ServeStats stats = engine.stats();
  totals.Add("serve.cache_hits", static_cast<double>(stats.cache.hits));
  totals.Add("serve.cache_lookups", static_cast<double>(stats.cache.hits + stats.cache.misses));
  totals.Add("serve.cache_evictions", static_cast<double>(stats.cache.evictions));
  totals.Add("serve.cache_invalidations", static_cast<double>(stats.cache.invalidated));
  for (double v : reader.hit_us) totals.Add("serve.hit_us_sum", v);
  for (double v : reader.miss_ms) totals.Add("serve.miss_ms_sum", v);
  totals.Add("serve.hit_count", static_cast<double>(reader.hit_us.size()));
  totals.Add("serve.miss_count", static_cast<double>(reader.miss_ms.size()));
  for (double v : reader.open_us) totals.Add("serve.open_us_sum", v);
  totals.Add("serve.open_count", static_cast<double>(reader.open_us.size()));
  totals.Add("sim.tick_p50_ms", e2ebench::Median(result.tick_s).value_or(0.0) * 1e3);
  totals.Add("sim.tick_max_ms",
             *std::max_element(result.tick_s.begin(), result.tick_s.end()) * 1e3);
  totals.Add("sim.rebalance_plans", static_cast<double>(result.plans));
  totals.Add("sim.migrations", static_cast<double>(baseline->epoch));
  totals.Add("sim.shed_ratio", baseline->global.offers_received > 0
                                   ? static_cast<double>(baseline->global.shed_offers) /
                                         baseline->global.offers_received
                                   : 0.0);
  totals.Add("util.write_bytes_per_tick",
             static_cast<double>(io_after.wchar - io_before.wchar) / tick);
  totals.Add("util.write_syscalls_per_tick",
             static_cast<double>(io_after.syscw - io_before.syscw) / tick);
  totals.Add("util.checkpoint_bytes", static_cast<double>(result.checkpoint_bytes));

  if (Tracer::enabled()) {
    // Attribution of each publish's cube and pyramid build, re-timed on the
    // same generation's database after the timed loop.
    for (const auto& [generation, db] : generations) {
      const auto cube_start = Clock::now();
      {
        Span span("olap.CubeBuild", publish_spans[generation], true);
        olap::Cube cube(db.get());
        ledger.CheckStatus(cube.AddStandardDimensions(), "cube dimensions");
      }
      totals.Add("olap.cube_build_s", Since(cube_start));
      const auto lod_start = Clock::now();
      {
        Span span("dw.BuildLodPyramid", publish_spans[generation], true);
        ledger.CheckStatus(dw::BuildLodPyramid(*db, dw::FlexOfferFilter{}).status(),
                           "lod build");
      }
      totals.Add("dw.lod_build_s", Since(lod_start));
    }
  }

  // Served answers of every generation equal a cold recompute.
  if (ctx.verify) {
    std::map<int64_t, std::vector<ServedSample>> by_generation;
    for (ServedSample& sample : reader.samples) {
      by_generation[sample.generation].push_back(std::move(sample));
    }
    for (auto& [generation, samples] : by_generation) {
      auto it = generations.find(generation);
      if (!ledger.Check(it != generations.end(), "sample of an unknown generation")) continue;
      VerifyServed(it->second, samples, "ingest generation " + std::to_string(generation),
                   ledger);
    }
  }
  if (state->baseline.has_value()) {
    ledger.Check(SameRun(*state, *baseline),
                 "ingest run differs from the first run of the same stream");
  } else {
    for (const core::FlexOffer& offer : baseline->global.offers) {
      state->baseline_offers.push_back(ContentText(offer));
    }
    state->baseline = *std::move(baseline);
  }
  fs::remove_all(work_dir, ec);
  return result;
}

/// Crash-cut resume: a second run stops after kCutTick ticks (off a
/// compaction boundary) and ResumeSharded finishes it; the result must equal
/// the uninterrupted run. The cut checkpoint `cut_template` is made once per
/// process and copied for every resume.
Result<ResumeResult> ResumeIngest(const std::vector<core::FlexOffer>& offers,
                                  const std::string& work_dir, const std::string& cut_template,
                                  const IngestState& state, const TaskContext& ctx) {
  Ledger& ledger = *ctx.ledger;
  CycleTotals& totals = *ctx.totals;
  if (!fs::exists(cut_template)) {
    sim::Coordinator cut(IngestParams());
    Status status = cut.BeginCheckpointed(offers, IngestWindow(), cut_template);
    for (int t = 0; status.ok() && t < kCutTick && !cut.Done(); ++t) status = cut.Tick();
    if (!ledger.CheckStatus(status, "cut run")) return status;
  }  // the coordinator is dropped without Finish: the process "crashed" here
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::copy(cut_template, work_dir, fs::copy_options::recursive, ec);
  if (!ledger.Check(!ec, "copy cut checkpoint: " + ec.message())) return InternalError("copy");
  sim::ShardResumeInfo info;
  const auto resume_start = Clock::now();
  Result<sim::MergedOnlineReport> resumed = [&] {
    Span span("sim.ResumeSharded");
    return sim::Coordinator::ResumeSharded(work_dir, &info);
  }();
  ResumeResult result;
  result.resume_s = Since(resume_start);
  if (!ledger.CheckStatus(resumed.status(), "ResumeSharded")) return resumed.status();
  ledger.Check(SameRun(state, *resumed),
               "resumed report or outbox differs from the uninterrupted run");
  for (const sim::ResumeInfo& shard : info.shards) {
    result.replayed += shard.ticks_replayed;
    result.folded += shard.ticks_folded;
  }
  totals.Add("sim.resume_ticks_replayed", static_cast<double>(result.replayed));
  totals.Add("sim.resume_ticks_folded", static_cast<double>(result.folded));
  totals.Add("util.journal_bytes_replayed",
             static_cast<double>(DirBytes(cut_template, "journal")));
  fs::remove_all(work_dir, ec);
  return result;
}

// ---- The run ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::atof(value.c_str());
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") args.workdir = value;
    else if (key == "--trace-out") args.trace_out = value;
    else return std::nullopt;
  }
  if (argc % 2 != 1 || args.workload.empty() || args.workdir.empty() || args.seconds <= 0.0) {
    return std::nullopt;
  }
  return args;
}

/// Everything set-up produces.
struct Fixtures {
  Dimensions dims;
  Warehouse explore;
  Warehouse plan;
  std::vector<core::FlexOffer> ingest_offers;
  std::unique_ptr<RequestMix> explore_mix;
  std::unique_ptr<RequestMix> ingest_mix;
};

Status SetUp(const Shape& shape, const Args& args, Fixtures* fx) {
  fx->explore = Warehouse{};
  const std::string explore_dir = args.workdir + "/explore-warehouse";
  const std::string plan_dir = args.workdir + "/plan-warehouse";
  std::vector<core::FlexOffer> explore_offers;
  Result<Warehouse> explore = WriteWarehouse(fx->dims, kWorldSeed, shape.explore_prosumers,
                                             explore_dir, &explore_offers);
  if (!explore.ok()) return explore.status();
  fx->explore = *explore;
  Result<Warehouse> plan = WriteWarehouse(fx->dims, kWorldSeed + 1, shape.plan_prosumers, plan_dir);
  if (!plan.ok()) return plan.status();
  fx->plan = *plan;
  Result<std::vector<core::FlexOffer>> ingest =
      MakeIngestOffers(fx->dims, kWorldSeed + 2, shape.ingest_prosumers);
  if (!ingest.ok()) return ingest.status();
  fx->ingest_offers = *std::move(ingest);
  fx->explore_mix = std::make_unique<RequestMix>(explore_offers, Day(), kWorldSeed);
  fx->ingest_mix = std::make_unique<RequestMix>(fx->ingest_offers, IngestWindow(), kWorldSeed);
  // The checkpoint directory is opened once here as well, so set-up covers
  // BeginCheckpointed of the full-size stream.
  sim::Coordinator coordinator(IngestParams());
  FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(fx->ingest_offers, IngestWindow(),
                                                        args.workdir + "/setup-checkpoint"));
  return OkStatus();
}

/// Exact counts that must repeat bit for bit for a given seed.
struct ExactCounts {
  std::map<std::string, std::string> values;
  bool Record(const std::string& name, const std::string& value, Ledger& ledger) {
    auto [it, inserted] = values.emplace(name, value);
    return ledger.Check(inserted || it->second == value,
                        name + " drifted across cycles: " + it->second + " vs " + value);
  }
};

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// One repetition of a task.
struct TaskRep {
  double work_s = 0.0;                   // timed work
  std::map<std::string, double> e2e;     // end-to-end values of this repetition
  QueryOutcome queries;                  // served latencies, when the task serves
  std::map<std::string, std::string> exact;
};

/// One timed operation of the product cycle. A task that needs another's
/// state (the opened engine, the uninterrupted ingest run) names it in
/// `after` and runs only once that one has run.
struct Task {
  const char* name;
  std::function<Result<TaskRep>(const TaskContext&)> fn;
  int after = -1;
};

const std::map<std::string, std::string> kTaskMetricUnits = {
    {"open_s", "s"},           {"pan_zoom_frame_ms", "ms"},   {"view_render_s", "s"},
    {"plan_day_s", "s"},       {"plan_imbalance_kwh", "kWh"}, {"ticks_per_s", "1/s"},
    {"resume_s", "s"},         {"disk_bytes_per_offer", "B"}};

/// The task whose wall time lies furthest below its share of --seconds runs
/// next, until --seconds have passed; then tasks short of kMinTaskReps
/// repetitions run to their minimum. Short tasks run many times, and every
/// task's repetitions spread over the whole run rather than one stretch of
/// it. The traced run (and its untraced reference pass) runs each task once.
constexpr int kMinTaskReps = 3;
constexpr int kMaxTaskReps = 400;

int Run(const Args& args) {
  const std::optional<Shape> shape = ShapeOf(args.workload);
  if (!shape.has_value()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Ledger ledger;
  Samples samples;
  ExactCounts exact;
  std::error_code ec;
  fs::create_directories(args.workdir, ec);

  // ---- Set-up, repeated; the median is setup_s ----
  Fixtures fx;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto start = Clock::now();
    const Status status = SetUp(*shape, args, &fx);
    setup_s.push_back(Since(start));
    if (!ledger.CheckStatus(status, "set-up")) return 1;
    malloc_trim(0);
  }
  samples.Add("setup_s", *e2ebench::Median(setup_s), "s");
  std::fprintf(stderr, "set-up %.2fs x%d (explore %zu offers, plan %zu, ingest %zu)\n",
               setup_s.back(), kSetupRepeats, fx.explore.offers, fx.plan.offers,
               fx.ingest_offers.size());

  ExploreState explore;
  IngestState ingest;
  // Per-step best times of the multi-step operations (see StepBest).
  std::map<std::string, StepBest> best;
  const std::vector<Task> tasks = {
      {"explore.open",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<std::vector<double>> steps = OpenExplore(fx.explore, ctx, &explore);
         if (!steps.ok()) return steps.status();
         TaskRep rep;
         rep.work_s = std::accumulate(steps->begin(), steps->end(), 0.0);
         rep.e2e = {{"open_s", best["open_s"].Add(*steps, "open", ledger)}};
         if (shape->store == Shape::Store::kExplore) {
           rep.e2e["disk_bytes_per_offer"] =
               static_cast<double>(fx.explore.bytes) / static_cast<double>(fx.explore.offers);
         }
         return rep;
       }},
      {"explore.queries",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         TaskRep rep;
         rep.queries = ExploreQueries(explore, *fx.explore_mix, shape->queries_per_client, ctx);
         rep.work_s = rep.queries.wall_s;
         return rep;
       },
       0},
      {"explore.pan_zoom",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<double> frame_ms = ExplorePanZoom(explore, ctx);
         if (!frame_ms.ok()) return frame_ms.status();
         TaskRep rep;
         rep.work_s = *frame_ms * kFrames / 1e3;
         rep.e2e = {{"pan_zoom_frame_ms", *frame_ms}};
         return rep;
       },
       0},
      {"explore.views",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<std::vector<double>> steps = RenderViews(*explore.db, ctx);
         if (!steps.ok()) return steps.status();
         TaskRep rep;
         rep.work_s = std::accumulate(steps->begin(), steps->end(), 0.0);
         rep.e2e = {{"view_render_s", best["view_render_s"].Add(*steps, "views", ledger)}};
         return rep;
       },
       0},
      {"plan-day",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<PlanResult> r = RunPlanDay(fx.plan, args.workdir + "/plan-run", ctx);
         if (!r.ok()) return r.status();
         TaskRep rep;
         rep.work_s = r->plan_day_s;
         rep.e2e = {{"plan_day_s", best["plan_day_s"].Add(r->steps, "plan-day", ledger)},
                    {"plan_imbalance_kwh", r->imbalance_kwh}};
         rep.exact = {{"plan_imbalance_kwh", FormatExact(r->imbalance_kwh)},
                      {"core.aggregation_ratio", FormatExact(r->aggregation_ratio)}};
         return rep;
       }},
      {"ingest.run",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<IngestResult> r = RunIngest(fx.dims, fx.ingest_offers, *fx.ingest_mix,
                                            args.workdir + "/ingest", ctx, &ingest);
         if (!r.ok()) return r.status();
         TaskRep rep;
         rep.work_s = r->loop_s;
         rep.e2e = {{"ticks_per_s", static_cast<double>(r->tick_s.size()) /
                                        best["ticks_per_s"].Add(r->tick_s, "ticks", ledger)}};
         if (shape->store == Shape::Store::kIngest) {
           rep.e2e["disk_bytes_per_offer"] = static_cast<double>(r->checkpoint_bytes) /
                                             static_cast<double>(fx.ingest_offers.size());
         }
         rep.exact = {{"sim.rebalance_plans", std::to_string(r->plans)}};
         return rep;
       }},
      {"ingest.resume",
       [&](const TaskContext& ctx) -> Result<TaskRep> {
         Result<ResumeResult> r =
             ResumeIngest(fx.ingest_offers, args.workdir + "/ingest-resume",
                          args.workdir + "/ingest-cut", ingest, ctx);
         if (!r.ok()) return r.status();
         TaskRep rep;
         rep.work_s = r->resume_s;
         rep.e2e = {{"resume_s", r->resume_s}};
         rep.exact = {{"sim.resume_ticks_replayed", std::to_string(r->replayed)},
                      {"sim.resume_ticks_folded", std::to_string(r->folded)}};
         return rep;
       },
       5},
  };

  // ---- Timed tasks ----
  // With --trace 1 the tasks run twice: untraced first (the reference for
  // the tracing overhead), then traced; the per-layer metrics come from the
  // traced pass.
  double untraced_work = 0.0;  // reference pass of a traced run
  double traced_work = 0.0;    // the measured pass
  CycleTotals layers;                   // per-layer totals of one cycle
  std::map<std::string, double> self_s; // per-layer self time of one cycle
  double spans_per_cycle = 0.0;
  double reference_best = ReferenceSeconds();  // see ReferenceSeconds
  for (int pass = args.trace ? 0 : 1; pass < 2; ++pass) {
    const bool traced = args.trace && pass == 1;
    const int min_reps = args.trace ? 1 : kMinTaskReps;
    const int max_reps = args.trace ? 1 : kMaxTaskReps;
    Tracer::Enable(traced);
    std::vector<std::vector<CycleTotals>> totals(tasks.size());
    std::vector<std::vector<double>> work(tasks.size());
    std::vector<double> spent(tasks.size(), 0.0);  // wall seconds per task
    double elapsed = 0.0;
    double next_reference = 0.0;
    while (true) {
      bool all_min = true;
      for (const std::vector<double>& w : work) all_min &= static_cast<int>(w.size()) >= min_reps;
      if (all_min && (args.trace || elapsed >= args.seconds)) break;
      auto behind = [&](size_t i) { return spent[i] / shape->shares.at(tasks[i].name); };
      const bool time_up = elapsed >= args.seconds;
      int next = -1;
      for (size_t i = 0; i < tasks.size(); ++i) {
        const int reps = static_cast<int>(work[i].size());
        if (reps >= max_reps || (time_up && reps >= min_reps)) continue;
        if (tasks[i].after >= 0 && work[static_cast<size_t>(tasks[i].after)].empty()) continue;
        if (next < 0 || behind(i) < behind(static_cast<size_t>(next))) next = static_cast<int>(i);
      }
      if (next < 0) break;
      const size_t i = static_cast<size_t>(next);
      const int rep = static_cast<int>(work[i].size());
      totals[i].emplace_back();
      TaskContext ctx{args.seed, rep, rep == 0 && pass == 1, &ledger, &totals[i].back()};
      const auto task_start = Clock::now();
      Result<TaskRep> out = tasks[i].fn(ctx);
      malloc_trim(0);
      const double wall_s = Since(task_start);
      spent[i] += wall_s;
      elapsed += wall_s;
      if (!args.trace && elapsed >= next_reference) {
        const double reference_s = ReferenceSeconds();
        reference_best = std::min(reference_best, reference_s);
        elapsed += reference_s;
        next_reference = elapsed + kReferenceEverySeconds;
      }
      if (!out.ok()) {
        ledger.CheckStatus(out.status(), tasks[i].name);
        return 1;
      }
      work[i].push_back(out->work_s);
      std::fprintf(stderr, "%.2f %s rep %d%s: work=%.4g", elapsed, tasks[i].name, rep,
                   traced ? " (traced)" : "", out->work_s);
      for (const auto& [name, value] : out->e2e) std::fprintf(stderr, " %s=%.4g", name.c_str(), value);
      std::fprintf(stderr, "\n");
      if (pass == 0) continue;
      for (const auto& [name, value] : out->e2e) {
        samples.Add(name, value, kTaskMetricUnits.at(name), Samples::Pick::kBest);
        if (name == "disk_bytes_per_offer") exact.Record(name, FormatExact(value), ledger);
      }
      for (const auto& [name, value] : out->exact) exact.Record(name, value, ledger);
      if (!out->queries.latency_ms.empty()) {
        // Percentiles per repetition; the best repetition is reported.
        const std::vector<double>& latency = out->queries.latency_ms;
        const std::optional<double> p99 = e2ebench::TailPercentile(latency, 0.99);
        ledger.Check(p99.has_value(), "p99 refused: " + std::to_string(latency.size()) +
                                          " query samples leave fewer than 10 beyond it");
        samples.Add("query_p50_ms", e2ebench::Percentile(latency, 0.50).value_or(0.0), "ms",
                    Samples::Pick::kBest);
        samples.Add("query_p99_ms", p99.value_or(0.0), "ms", Samples::Pick::kBest);
        samples.Add("queries_per_s", static_cast<double>(latency.size()) / out->queries.wall_s,
                    "1/s", Samples::Pick::kBest);
      }
    }
    for (size_t i = 0; i < tasks.size(); ++i) {
      const double median_work = *e2ebench::Median(work[i]);
      (traced || !args.trace ? traced_work : untraced_work) += median_work;
      std::fprintf(stderr, "%-16s%s: %3zu reps, %6.2fs wall, median %.4fs timed work\n",
                   tasks[i].name, traced ? " (traced)" : "", work[i].size(), spent[i],
                   median_work);
      if (pass == 0) continue;
      // One cycle's worth of each per-layer total: the median over reps.
      std::set<std::string> keys;
      for (const CycleTotals& t : totals[i]) {
        for (const auto& [name, value] : t.sums) keys.insert(name);
      }
      for (const std::string& key : keys) {
        std::vector<double> values;
        for (const CycleTotals& t : totals[i]) values.push_back(t.Get(key));
        layers.Add(key, *e2ebench::Median(values));
      }
    }
    if (traced) {
      // The traced pass runs every task once: its spans are one cycle.
      const std::vector<e2ebench::SpanRecord> spans = Tracer::Spans();
      self_s = e2ebench::SelfSecondsByLayer(spans);
      spans_per_cycle = static_cast<double>(spans.size());
      if (!args.trace_out.empty() && !Tracer::WriteChromeTrace(args.trace_out)) {
        ledger.Fail("cannot write " + args.trace_out);
      }
    }
  }
  explore = ExploreState{};
  Tracer::Enable(false);
  fs::remove_all(args.workdir, ec);

  samples.Add("peak_rss_mb", PeakRssMb(), "MB");
  ledger.Check(samples.values.count("query_p99_ms") != 0, "no query latency samples");

  // ---- Per-layer metrics of one cycle ----
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto total = [&](const std::string& name) { return layers.Get(name); };
  auto layer = [&](const std::string& name, double value, const std::string& unit) {
    samples.Add(name, value, unit);
  };
  layer("dw.load_s", total("dw.load_s"), "s");
  layer("dw.load_offers_per_s", ratio(total("dw.loaded_offers"), total("dw.load_s")), "1/s");
  layer("dw.read_bytes_per_offer", ratio(total("dw.read_bytes"), total("dw.loaded_offers")), "B");
  layer("dw.save_s", total("dw.save_s"), "s");
  layer("dw.write_bytes_per_offer", ratio(total("dw.write_bytes"), total("dw.saved_offers")),
        "B");
  for (const char* name : {"dw.select_s", "dw.lod_build_s", "olap.cube_build_s",
                           "serve.publish_s", "render.raster_replay_s", "viz.basic_view_s",
                           "viz.dashboard_view_s", "core.aggregate_s", "core.schedule_s",
                           "sim.plan_horizon_s"}) {
    layer(name, total(name), "s");
  }
  layer("olap.mdx_parse_us", total("olap.mdx_parse_us"), "us");
  layer("olap.pivot_cold_ms", total("olap.pivot_cold_ms"), "ms");
  layer("olap.facts_per_s", total("olap.facts_per_s"), "1/s");
  layer("serve.cache_hit_ratio", ratio(total("serve.cache_hits"), total("serve.cache_lookups")),
        "ratio");
  for (const char* name : {"serve.cache_lookups", "serve.cache_evictions",
                           "serve.cache_invalidations", "sim.rebalance_plans", "sim.migrations",
                           "sim.resume_ticks_replayed", "sim.resume_ticks_folded",
                           "util.write_syscalls_per_tick"}) {
    layer(name, total(name), "count");
  }
  layer("serve.query_hit_us", ratio(total("serve.hit_us_sum"), total("serve.hit_count")), "us");
  layer("serve.query_miss_ms", ratio(total("serve.miss_ms_sum"), total("serve.miss_count")), "ms");
  layer("serve.open_session_us", ratio(total("serve.open_us_sum"), total("serve.open_count")),
        "us");
  layer("render.compose_us", total("render.compose_us"), "us");
  layer("render.fill_ms", total("render.fill_ms"), "ms");
  layer("render.tile_hit_ratio", ratio(total("render.tile_hits"), total("render.tile_lookups")),
        "ratio");
  layer("core.aggregation_ratio", total("core.aggregation_ratio"), "ratio");
  layer("sim.tick_p50_ms", total("sim.tick_p50_ms"), "ms");
  layer("sim.tick_max_ms", total("sim.tick_max_ms"), "ms");
  layer("sim.shed_ratio", total("sim.shed_ratio"), "ratio");
  for (const char* name : {"util.journal_bytes_replayed", "util.write_bytes_per_tick",
                           "util.checkpoint_bytes"}) {
    layer(name, total(name), "B");
  }

  // ---- Trace: per-layer self time and overhead ----
  if (args.trace) {
    std::string top;
    double top_s = -1.0;
    std::fprintf(stderr, "per-layer self time (%s, one cycle of the three stages):\n",
                 args.workload.c_str());
    for (const char* name : {"dw", "olap", "serve", "render", "viz", "core", "sim", "util"}) {
      const double s = self_s.count(name) != 0 ? self_s[name] : 0.0;
      layer(std::string("self.") + name + "_s", s, "s");
      std::fprintf(stderr, "  %-7s %10.4f s\n", name, s);
      if (s > top_s) {
        top_s = s;
        top = name;
      }
    }
    std::printf("top_layer %s\n", top.c_str());
    layer("trace.overhead_s", traced_work - untraced_work, "s");
    layer("trace.spans", spans_per_cycle, "count");
  }

  // ---- Result ----
  // Times and rates at the reference host speed (see ReferenceSeconds); the
  // traced run reports per-layer metrics as measured.
  const double time_scale = args.trace ? 1.0 : kReferenceSeconds / reference_best;
  auto reported = [&](const std::string& name) {
    const std::string& unit = samples.units[name];
    const double value = samples.Reported(name);
    if (unit == "s" || unit == "ms" || unit == "us") return value * time_scale;
    if (unit == "1/s") return value / time_scale;
    return value;
  };
  std::fprintf(stderr, "reference kernel best %.5f s: times scaled by %.4f\n", reference_best,
               time_scale);
  std::ostringstream out;
  out.precision(17);  // every digit of a double
  out << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted() << ", \"failed\": " << ledger.failed()
      << ", \"threads\": " << ParallelThreadCount() << ", \"reference_s\": " << reference_best
      << ", \"time_scale\": " << time_scale << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, values] : samples.values) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << reported(name)
        << ", \"unit\": \"" << samples.units[name] << "\"}";
    first = false;
  }
  out << "}, \"exact\": {";
  first = true;
  for (const auto& [name, value] : exact.values) {
    out << (first ? "" : ", ") << "\"" << name << "\": \"" << JsonEscape(value) << "\"";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: flexvis_e2e --workload NAME --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  return Run(*args);
}
