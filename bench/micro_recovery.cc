// Recovery-path microbenchmarks (EXPERIMENTS.md Q7/Q9): what crash
// consistency costs and how fast a crashed run comes back. The custom main
// writes bench_out/BENCH_recovery.json with snapshot save/load throughput,
// WAL append rates (fsync-per-record vs buffered), store recovery rate, and
// the resume wall time of a checkpointed online run (a 1-shard coordinator
// run, resumed by Coordinator::ResumeSharded) against the number of
// journaled ticks — with and without generational compaction. With
// compaction at interval C the resume replays at most C tick records no
// matter how long the run was; the `replay_bounded_by_interval` counter
// gates that bound in CI (the bench exits nonzero when a compacted resume
// replays more than its interval).
//
// All durable I/O goes through util/store's DurableStore — the journal and
// manifest primitives are implementation details of util/ and are not used
// directly here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "dw/persistence.h"
#include "sim/checkpoint.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "util/parallel.h"
#include "util/store.h"
#include "util/strings.h"

using namespace flexvis;

namespace {

namespace fs = std::filesystem;

std::string BenchDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / "flexvis_bench_recovery" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string SampleRecord() {
  // Roughly the size and shape of a real journaled tick record.
  return std::string(
      R"({"tick":7,"changes":[{"offer":1201,"state":2,"start_min":22606560,)"
      R"("kwh":[1.25,0.5,2.0]}],"sent":["..."],"received":64,"accepted":20,)"
      R"("rejected":4,"assigned":16,"next_arrival":64,"pend_acc":[7,9]})");
}

/// A minimal store layout for the raw WAL-rate benchmarks: one manifest, one
/// WAL, no snapshot files.
StoreOptions WalBenchOptions() {
  StoreOptions options;
  options.manifest_name = "MANIFEST.json";
  options.journal_name = "records.wal";
  return options;
}

// ---- google-benchmark timings (not run by the CI smoke filter) ----------------------

void BM_StoreAppendDurable(benchmark::State& state) {
  Result<DurableStore> store =
      DurableStore::Create(BenchDir("bm_append"), WalBenchOptions(), {}, JsonValue());
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return;
  }
  const std::string record = SampleRecord();
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->Append(record));
    benchmark::DoNotOptimize(store->Flush());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(record.size()));
}
BENCHMARK(BM_StoreAppendDurable);

void BM_StoreRecover(benchmark::State& state) {
  const std::string dir = BenchDir("bm_recover");
  {
    Result<DurableStore> store =
        DurableStore::Create(dir, WalBenchOptions(), {}, JsonValue());
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    for (int64_t i = 0; i < state.range(0); ++i) {
      if (!store->Append(SampleRecord()).ok()) {
        state.SkipWithError("append failed");
        return;
      }
    }
    (void)store->Close();
  }
  for (auto _ : state) {
    Result<StoreRecovery> recovery = DurableStore::Recover(dir, WalBenchOptions());
    benchmark::DoNotOptimize(recovery);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StoreRecover)->Arg(1000)->Arg(10000);

// ---- The JSON report the CI gate archives -------------------------------------------

bool WriteRecoveryReport() {
  bench::BenchReport report("recovery");
  bool ok = true;

  // Snapshot save/load throughput over a realistic warehouse.
  bench::WorldOptions world_options;
  world_options.num_prosumers =
      static_cast<int>(bench::EnvSize("FLEXVIS_BENCH_RECOVERY_PROSUMERS", 150));
  std::unique_ptr<bench::World> world = bench::BuildWorld(world_options);
  const double db_offers = static_cast<double>(world->db.NumFlexOffers());

  // WAL workload: enough records that per-record overheads dominate.
  const size_t journal_records = bench::EnvSize("FLEXVIS_BENCH_JOURNAL_RECORDS", 2000);
  const std::string record = SampleRecord();

  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::string suffix = StrFormat("_%dt", threads);

    // Snapshot save + load (manifest verification included in the load).
    const std::string snap_dir = BenchDir(StrFormat("snapshot%s", suffix.c_str()));
    double save_s = bench::MeasureSeconds([&] {
      if (!dw::SaveDatabase(world->db, snap_dir).ok()) ok = false;
    });
    report.AddSample("snapshot_save" + suffix, save_s, threads, db_offers);
    double load_s = bench::MeasureSeconds([&] {
      Result<dw::Database> restored = dw::LoadDatabase(snap_dir);
      if (!restored.ok()) ok = false;
      benchmark::DoNotOptimize(restored);
    });
    report.AddSample("snapshot_load" + suffix, load_s, threads, db_offers);

    // WAL append, durable (flush+fsync per record) and buffered.
    const std::string journal_dir = BenchDir(StrFormat("journal%s", suffix.c_str()));
    double durable_s = bench::MeasureSeconds(
        [&] {
          Result<DurableStore> store = DurableStore::Create(
              journal_dir + "/durable", WalBenchOptions(), {}, JsonValue());
          for (size_t i = 0; store.ok() && i < journal_records; ++i) {
            if (!store->Append(record).ok() || !store->Flush().ok()) ok = false;
          }
        },
        1);
    report.AddSample("journal_append_fsync" + suffix, durable_s, threads,
                     static_cast<double>(journal_records));
    const std::string buffered_dir = journal_dir + "/buffered";
    double buffered_s = bench::MeasureSeconds([&] {
      Result<DurableStore> store =
          DurableStore::Create(buffered_dir, WalBenchOptions(), {}, JsonValue());
      for (size_t i = 0; store.ok() && i < journal_records; ++i) {
        if (!store->Append(record).ok()) ok = false;
      }
      if (store.ok() && !store->Close().ok()) ok = false;
    });
    report.AddSample("journal_append_buffered" + suffix, buffered_s, threads,
                     static_cast<double>(journal_records));

    // Store recovery (manifest verification + WAL replay of the buffered
    // store written above).
    double replay_s = bench::MeasureSeconds([&] {
      Result<StoreRecovery> recovery =
          DurableStore::Recover(buffered_dir, WalBenchOptions());
      if (!recovery.ok() || recovery->records.size() != journal_records) ok = false;
      benchmark::DoNotOptimize(recovery);
    });
    report.AddSample("journal_replay" + suffix, replay_s, threads,
                     static_cast<double>(journal_records));
    report.AddStage("journal_replay" + suffix, "scan", replay_s,
                    static_cast<double>(journal_records));
    report.AddStage("snapshot_load" + suffix, "fold", load_s, db_offers);
    report.AddStage("journal_append_fsync" + suffix, "append", durable_s,
                    static_cast<double>(journal_records));
    if (replay_s > 0.0) {
      report.SetCounter("journal_replay_records_per_sec" + suffix,
                        static_cast<double>(journal_records) / replay_s);
    }
  }
  SetParallelThreadCount(1);

  // Resume wall time vs run length x compaction cadence (EXPERIMENTS.md Q9):
  // run once checkpointed (one shard) at a 15-minute tick over growing
  // windows, then time ResumeSharded over the completed directory, best of
  // 3 like every other sample here. Without compaction the replayed-tick
  // count grows linearly with the run; with compaction at interval C the
  // resume replays at most C records — the hard bound the
  // `replay_bounded_by_interval` counter gates.
  std::vector<core::FlexOffer> offers =
      bench::MakeRandomOffers(31, bench::EnvSize("FLEXVIS_BENCH_RESUME_OFFERS", 200));
  const int64_t tick_minutes = 15;
  const size_t ticks_cap = bench::EnvSize("FLEXVIS_BENCH_RESUME_TICKS_CAP", 19200);
  std::vector<int> compact_settings = {0, 64, 256};
  if (Result<int> env = sim::CompactTicksFromEnv();
      env.ok() && *env > 0 &&
      std::find(compact_settings.begin(), compact_settings.end(), *env) ==
          compact_settings.end()) {
    compact_settings.push_back(*env);
  }
  bool bounded = true;
  for (int run_ticks : {192, 1920, 19200}) {
    if (static_cast<size_t>(run_ticks) > ticks_cap) continue;
    timeutil::TimeInterval window(bench::BenchDay(),
                                  bench::BenchDay() + run_ticks * tick_minutes);
    for (int compact_ticks : compact_settings) {
      sim::CoordinatorParams params;
      params.num_shards = 1;
      params.online.tick_minutes = tick_minutes;
      params.online.compact_ticks = compact_ticks;
      const std::string dir =
          BenchDir(StrFormat("resume_%dticks_c%d", run_ticks, compact_ticks));
      Result<sim::MergedOnlineReport> baseline =
          sim::Coordinator::RunShardedCheckpointed(params, offers, window, dir);
      if (!baseline.ok()) {
        std::fprintf(stderr, "FAIL: checkpointed run errored: %s\n",
                     baseline.status().ToString().c_str());
        return false;
      }
      const std::string label =
          StrFormat("resume_%dticks_c%d", baseline->global.ticks, compact_ticks);
      sim::ShardResumeInfo shards;
      Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &shards);
      const sim::ResumeInfo info = shards.shards.empty() ? sim::ResumeInfo{} : shards.shards[0];
      if (!resumed.ok() ||
          info.ticks_folded + info.ticks_replayed != baseline->global.ticks ||
          info.ticks_continued != 0 || resumed->global.outbox != baseline->global.outbox ||
          resumed->global.imbalance_kwh != baseline->global.imbalance_kwh) {
        std::fprintf(stderr, "FAIL: resume diverged from the checkpointed run (%s)\n",
                     label.c_str());
        ok = false;
      }
      if (compact_ticks > 0 && info.ticks_replayed > compact_ticks) {
        std::fprintf(stderr,
                     "FAIL: compacted resume replayed %d ticks, above its interval %d "
                     "(%s)\n",
                     info.ticks_replayed, compact_ticks, label.c_str());
        bounded = false;
      }
      double resume_s = bench::MeasureSeconds([&] {
        Result<sim::MergedOnlineReport> timed = sim::Coordinator::ResumeSharded(dir);
        if (!timed.ok()) ok = false;
        benchmark::DoNotOptimize(timed);
      });
      report.AddSample(label, resume_s, 1, static_cast<double>(baseline->global.ticks));
      report.SetCounter(label + "_ticks_replayed", static_cast<double>(info.ticks_replayed));
      report.SetCounter(label + "_generation", static_cast<double>(info.generation));
    }
  }
  report.SetCounter("replay_bounded_by_interval", bounded ? 1.0 : 0.0);
  report.SetCounter("resume_matches_baseline", ok ? 1.0 : 0.0);
  ok = ok && bounded;

  if (Status status = report.Write(); !status.ok()) {
    std::fprintf(stderr, "report failed: %s\n", status.ToString().c_str());
    return false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!WriteRecoveryReport()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
