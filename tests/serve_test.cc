// Tests for the concurrent multi-session serving layer (src/serve): MVCC
// over published warehouse generations (readers pin, the ingest loop
// publishes, superseded generations retire at last unpin), the
// generation-keyed result cache with strict invalidation on advance,
// and admission control under ShedPolicy.

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/engine.h"
#include "sim/online.h"

namespace flexvis::serve {
namespace {

using core::FlexOffer;
using core::FlexOfferState;
using core::ProfileSlice;
using timeutil::kMinutesPerSlice;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

FlexOffer MakeOffer(core::FlexOfferId id, FlexOfferState state, int64_t est_slices,
                    double min_kwh, double max_kwh) {
  FlexOffer o;
  o.id = id;
  o.prosumer = id;
  o.state = state;
  o.prosumer_type = core::ProsumerType::kHousehold;
  o.energy_type = core::EnergyType::kMixedGrid;
  o.region = 100;
  o.earliest_start = T0() + est_slices * kMinutesPerSlice;
  o.latest_start = o.earliest_start + 4 * kMinutesPerSlice;
  o.creation_time = o.earliest_start - 600;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  o.profile = {ProfileSlice{2, min_kwh, max_kwh}};
  return o;
}

/// An immutable warehouse whose content is a pure function of `version`:
/// 3 + version offers with version-dependent energies, so every
/// generation's query answers differ byte-wise.
std::shared_ptr<const dw::Database> MakeWarehouse(int version) {
  auto db = std::make_shared<dw::Database>();
  EXPECT_TRUE(db->RegisterRegion(
      dw::RegionInfo{1, "Denmark", core::kInvalidRegionId, "country"}).ok());
  EXPECT_TRUE(db->RegisterRegion(dw::RegionInfo{100, "Aalborg", 1, "city"}).ok());
  std::vector<FlexOffer> offers;
  const FlexOfferState states[] = {FlexOfferState::kAccepted, FlexOfferState::kAssigned,
                                   FlexOfferState::kRejected};
  for (int i = 0; i < 3 + version; ++i) {
    offers.push_back(MakeOffer(i + 1, states[i % 3], i * 4, 1.0 + version, 2.0 + version + i));
  }
  EXPECT_TRUE(db->LoadFlexOffers(offers).ok());
  return db;
}

ServeRequest PivotRequest() {
  ServeRequest request;
  request.kind = RequestKind::kPivot;
  request.mdx =
      "SELECT { Measures.EnergyFlexibility } ON COLUMNS, { State.Members } ON ROWS "
      "FROM [FlexOffers]";
  return request;
}

ServeRequest SelectRequest() {
  ServeRequest request;
  request.kind = RequestKind::kSelect;
  request.filter.states = {FlexOfferState::kAccepted, FlexOfferState::kAssigned};
  return request;
}

ServeRequest HoverRequest(core::FlexOfferId id) {
  ServeRequest request;
  request.kind = RequestKind::kHover;
  request.offer = id;
  return request;
}

ServeRequest RollupRequest() {
  ServeRequest request = PivotRequest();
  request.kind = RequestKind::kRollup;
  return request;
}

/// The expected answer for (version, request), computed on a private
/// single-session engine — the oracle concurrent readers compare against.
std::string ExpectedAnswer(int version, const ServeRequest& request) {
  ServeEngine engine(ServeEngine::Options{});
  engine.Publish(MakeWarehouse(version));
  Result<ServeSession> session = engine.OpenSession();
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  if (!session.ok()) return "";
  Result<std::string> answer = session->Query(request);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.value_or("");
}

// ---- MVCC registry ---------------------------------------------------------

TEST(ServeTest, SnapshotIsolationAcrossPublishes) {
  ServeEngine engine(ServeEngine::Options{});
  EXPECT_EQ(engine.Publish(MakeWarehouse(0)), 0);

  Result<ServeSession> reader = engine.OpenSession();
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->generation(), 0);
  Result<std::string> before = reader->Query(PivotRequest());
  ASSERT_TRUE(before.ok());

  // The ingest loop advances twice; the pinned reader must not notice.
  EXPECT_EQ(engine.Publish(MakeWarehouse(1)), 1);
  EXPECT_EQ(engine.Publish(MakeWarehouse(2)), 2);
  EXPECT_EQ(reader->generation(), 0);
  EXPECT_EQ(*reader->Query(PivotRequest()), *before);
  EXPECT_EQ(*before, ExpectedAnswer(0, PivotRequest()));

  // Generation 1 had no readers: retired as soon as 2 published. Generation
  // 0 retires when its last reader closes.
  EXPECT_EQ(engine.stats().live_generations, 2u);
  reader->Close();
  ServeStats stats = engine.stats();
  EXPECT_EQ(stats.live_generations, 1u);
  EXPECT_EQ(stats.retired_generations, 2);
  EXPECT_EQ(stats.active_pins, 0);

  // New sessions land on the newest generation.
  Result<ServeSession> fresh = engine.OpenSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->generation(), 2);
  EXPECT_EQ(*fresh->Query(PivotRequest()), ExpectedAnswer(2, PivotRequest()));
}

TEST(ServeTest, PinSpecificGenerationAndNotFoundAfterRetire) {
  GenerationRegistry registry;
  registry.Publish(MakeWarehouse(0));
  registry.Publish(MakeWarehouse(1));
  // Generation 0 already retired: it had no pins when 1 published.
  EXPECT_FALSE(registry.PinGeneration(0).ok());
  Result<SnapshotRef> pin = registry.PinGeneration(1);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pin->generation(), 1);
  registry.Publish(MakeWarehouse(2));
  EXPECT_EQ(registry.live_generations(), 2u);
  EXPECT_EQ(registry.LiveGenerations(), (std::vector<int64_t>{1, 2}));
  pin->Release();
  EXPECT_EQ(registry.live_generations(), 1u);
  EXPECT_EQ(registry.retired_generations(), 2);
}

// ---- Concurrent pin/advance/unpin stress -----------------------------------

/// `reader_threads` concurrent sessions run the mixed workload while the
/// main thread keeps publishing; every answer must byte-equal the
/// per-generation oracle computed before any concurrency started.
void RunPinAdvanceUnpinStress(int reader_threads) {
  constexpr int kVersions = 5;
  constexpr int kQueriesPerReader = 30;

  std::map<int64_t, std::string> expected[3];
  for (int v = 0; v < kVersions; ++v) {
    expected[0][v] = ExpectedAnswer(v, PivotRequest());
    expected[1][v] = ExpectedAnswer(v, SelectRequest());
    expected[2][v] = ExpectedAnswer(v, RollupRequest());
    ASSERT_FALSE(expected[0][v].empty());
  }

  ServeEngine engine(ServeEngine::Options{});
  engine.Publish(MakeWarehouse(0));

  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  readers.reserve(static_cast<size_t>(reader_threads));
  for (int t = 0; t < reader_threads; ++t) {
    readers.emplace_back([&engine, &expected, &mismatches, &errors, t] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        Result<ServeSession> session = engine.OpenSession();
        if (!session.ok()) { ++errors; return; }
        const int64_t gen = session->generation();
        const int kind = (q + t) % 3;
        const ServeRequest request =
            kind == 0 ? PivotRequest() : kind == 1 ? SelectRequest() : RollupRequest();
        Result<std::string> answer = session->Query(request);
        if (!answer.ok()) { ++errors; return; }
        // Snapshot isolation: the answer matches the oracle of the pinned
        // generation no matter what the publisher did meanwhile.
        if (*answer != expected[kind].at(gen)) ++mismatches;
        if (session->generation() != gen) ++mismatches;
      }
    });
  }

  for (int v = 1; v < kVersions; ++v) {
    engine.Publish(MakeWarehouse(v));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  ServeStats stats = engine.stats();
  EXPECT_EQ(stats.active_pins, 0);
  EXPECT_EQ(stats.live_generations, 1u);
  EXPECT_EQ(stats.current_generation, kVersions - 1);
  EXPECT_EQ(stats.retired_generations, kVersions - 1);
}

TEST(ServeTest, PinAdvanceUnpinStressOneReader) { RunPinAdvanceUnpinStress(1); }

TEST(ServeTest, PinAdvanceUnpinStressEightReaders) { RunPinAdvanceUnpinStress(8); }

// ---- Result cache ----------------------------------------------------------

TEST(ServeTest, CachedResultByteEqualsRecomputed) {
  ServeEngine engine(ServeEngine::Options{});
  engine.Publish(MakeWarehouse(1));
  Result<ServeSession> a = engine.OpenSession();
  Result<ServeSession> b = engine.OpenSession();
  ASSERT_TRUE(a.ok() && b.ok());

  for (const ServeRequest& request :
       {PivotRequest(), SelectRequest(), RollupRequest(), HoverRequest(2)}) {
    Result<std::string> miss = a->Query(request);   // computes + fills cache
    Result<std::string> hit = b->Query(request);    // must be served from cache
    ASSERT_TRUE(miss.ok()) << miss.status().ToString();
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_EQ(*miss, *hit);
    EXPECT_EQ(*hit, ExpectedAnswer(1, request));  // cached == recomputed, byte for byte
  }
  CacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(ServeTest, CacheKeyNormalizesEquivalentQueries) {
  ServeEngine engine(ServeEngine::Options{});
  engine.Publish(MakeWarehouse(0));
  Result<ServeSession> session = engine.OpenSession();
  ASSERT_TRUE(session.ok());

  ServeRequest spaced = PivotRequest();
  ServeRequest crammed = PivotRequest();
  crammed.mdx = "select {measures.EnergyFlexibility} on columns,{state.members} on rows "
                "from [FlexOffers]";
  ASSERT_TRUE(session->Query(spaced).ok());
  ASSERT_TRUE(session->Query(crammed).ok());
  // Same canonical key: the second spelling hits the first one's entry.
  CacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);

  // Filters assembled in different IN-list orders share one entry too.
  ServeRequest forward = SelectRequest();
  ServeRequest reversed = SelectRequest();
  reversed.filter.states = {FlexOfferState::kAssigned, FlexOfferState::kAccepted};
  ASSERT_TRUE(session->Query(forward).ok());
  ASSERT_TRUE(session->Query(reversed).ok());
  stats = engine.cache().stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
}

TEST(ServeTest, CacheInvalidatedOnGenerationAdvance) {
  ServeEngine engine(ServeEngine::Options{});
  engine.Publish(MakeWarehouse(0));
  Result<ServeSession> session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Query(PivotRequest()).ok());
  ASSERT_TRUE(session->Query(SelectRequest()).ok());
  EXPECT_EQ(engine.cache().stats().entries, 2u);

  engine.Publish(MakeWarehouse(1));

  // Strict invalidation: no generation-0 entry survives the advance.
  CacheStats stats = engine.cache().stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.invalidated, 2);
  for (const auto& [gen, key, value] : engine.cache().Entries()) {
    EXPECT_GE(gen, 1) << key;
  }

  // The still-pinned generation-0 reader recomputes instead of reading a
  // stale (evicted) entry — and still gets its own generation's bytes.
  EXPECT_EQ(*session->Query(PivotRequest()), ExpectedAnswer(0, PivotRequest()));
}

TEST(ServeTest, CacheEvictsLeastRecentlyUsed) {
  ResultCache cache(/*max_entries=*/2, /*max_bytes=*/1 << 20);
  cache.Insert(0, "a", "1");
  cache.Insert(0, "b", "2");
  EXPECT_TRUE(cache.Lookup(0, "a").has_value());  // refresh a
  cache.Insert(0, "c", "3");                       // evicts b
  EXPECT_FALSE(cache.Lookup(0, "b").has_value());
  EXPECT_TRUE(cache.Lookup(0, "a").has_value());
  EXPECT_TRUE(cache.Lookup(0, "c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

// ---- Admission control -----------------------------------------------------

TEST(ServeTest, AdmissionShedsNewestWhenSaturated) {
  std::vector<std::string> journal;
  std::mutex journal_mutex;
  ServeEngine::Options options;
  options.max_active_sessions = 2;
  options.session_queue_capacity = 0;
  options.shed_policy = sim::ShedPolicy::kRejectNewest;
  options.journal = [&journal, &journal_mutex](const std::string& line) {
    std::lock_guard<std::mutex> lock(journal_mutex);
    journal.push_back(line);
  };
  ServeEngine engine(options);
  engine.Publish(MakeWarehouse(0));

  Result<ServeSession> s1 = engine.OpenSession();
  Result<ServeSession> s2 = engine.OpenSession();
  ASSERT_TRUE(s1.ok() && s2.ok());
  Result<ServeSession> s3 = engine.OpenSession();
  ASSERT_FALSE(s3.ok());
  EXPECT_EQ(s3.status().code(), StatusCode::kUnavailable);

  AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.active, 2);

  // The shed is journaled (surfaced in serving reports).
  bool journaled = false;
  {
    std::lock_guard<std::mutex> lock(journal_mutex);
    for (const std::string& line : journal) {
      if (line.find("admission.shed") != std::string::npos &&
          line.find("reject_newest") != std::string::npos) {
        journaled = true;
      }
    }
  }
  EXPECT_TRUE(journaled);

  // Freed capacity admits again.
  s1->Close();
  EXPECT_TRUE(engine.OpenSession().ok());
}

TEST(ServeTest, AdmissionQueuesUntilSlotFrees) {
  ServeEngine::Options options;
  options.max_active_sessions = 1;
  options.session_queue_capacity = 2;
  ServeEngine engine(options);
  engine.Publish(MakeWarehouse(0));

  Result<ServeSession> holder = engine.OpenSession();
  ASSERT_TRUE(holder.ok());

  std::atomic<bool> admitted{false};
  std::thread waiter([&engine, &admitted] {
    Result<ServeSession> queued = engine.OpenSession();
    EXPECT_TRUE(queued.ok()) << queued.status().ToString();
    admitted = true;
  });
  while (engine.stats().admission.waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(admitted.load());
  holder->Close();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.queued, 1);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.queue_high_watermark, 1);
}

TEST(ServeTest, AdmissionEvictsLeastValuableWaiter) {
  ServeEngine::Options options;
  options.max_active_sessions = 1;
  options.session_queue_capacity = 1;
  options.shed_policy = sim::ShedPolicy::kRejectLeastValuable;
  ServeEngine engine(options);
  engine.Publish(MakeWarehouse(0));

  Result<ServeSession> holder = engine.OpenSession(/*value=*/10.0);
  ASSERT_TRUE(holder.ok());

  std::atomic<int> low_value_outcome{-1};  // 0 = shed, 1 = admitted
  std::thread low([&engine, &low_value_outcome] {
    Result<ServeSession> queued = engine.OpenSession(/*value=*/1.0);
    low_value_outcome = queued.ok() ? 1 : 0;
  });
  while (engine.stats().admission.waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue is full; a more valuable arrival evicts the waiting low-value
  // session, which fails kUnavailable.
  std::thread high([&engine, &holder] {
    Result<ServeSession> queued = engine.OpenSession(/*value=*/5.0);
    EXPECT_TRUE(queued.ok()) << queued.status().ToString();
  });
  low.join();
  EXPECT_EQ(low_value_outcome.load(), 0);
  while (engine.stats().admission.waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  holder->Close();
  high.join();

  AdmissionStats stats = engine.stats().admission;
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.admitted, 2);

  // A less valuable arrival than every waiter is itself shed. (Queue is
  // empty now, so saturate it first with a mid-value waiter.)
  Result<ServeSession> holder2 = engine.OpenSession(/*value=*/10.0);
  ASSERT_TRUE(holder2.ok());
  std::thread mid([&engine] {
    Result<ServeSession> queued = engine.OpenSession(/*value=*/4.0);
    EXPECT_TRUE(queued.ok());
  });
  while (engine.stats().admission.waiting == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Result<ServeSession> cheap = engine.OpenSession(/*value=*/0.5);
  EXPECT_FALSE(cheap.ok());
  EXPECT_EQ(cheap.status().code(), StatusCode::kUnavailable);
  holder2->Close();
  mid.join();
}

// ---- Session teardown ------------------------------------------------------

TEST(ServeTest, TornDownSessionLeaksNoPinsOrSlots) {
  ServeEngine::Options options;
  options.max_active_sessions = 1;
  ServeEngine engine(options);
  engine.Publish(MakeWarehouse(0));

  {
    Result<ServeSession> session = engine.OpenSession();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session->Query(PivotRequest()).ok());
    Result<viz::Session*> interactive = session->InteractiveSession();
    ASSERT_TRUE(interactive.ok());
    ASSERT_TRUE((*interactive)->LoadTab(dw::FlexOfferFilter{}, "all").ok());
    // Torn down mid-workflow: destructor runs with the tab still open and
    // no explicit Close().
  }
  EXPECT_EQ(engine.stats().active_pins, 0);
  EXPECT_EQ(engine.stats().admission.active, 0);
  // The freed slot is reusable — nothing leaked.
  Result<ServeSession> next = engine.OpenSession();
  EXPECT_TRUE(next.ok());

  // Moved-from sessions release exactly once.
  ServeSession moved = *std::move(next);
  moved.Close();
  EXPECT_EQ(engine.stats().active_pins, 0);
  EXPECT_EQ(engine.stats().admission.active, 0);
}

TEST(ServeTest, PublishHookServesFromOnlineLoop) {
  // The ingest loop publishes a generation per tick through
  // OnlineParams::publish_hook; readers see monotonically advancing
  // generations, and the hook observing state does not alter decisions.
  sim::OnlineParams params;
  params.tick_minutes = 120;
  ServeEngine engine(ServeEngine::Options{});
  std::vector<int> published_ticks;
  params.publish_hook = [&engine, &published_ticks](const sim::OnlineLoopState& state) {
    auto db = std::make_shared<dw::Database>();
    ASSERT_TRUE(db->RegisterRegion(
        dw::RegionInfo{1, "Denmark", core::kInvalidRegionId, "country"}).ok());
    ASSERT_TRUE(db->RegisterRegion(dw::RegionInfo{100, "Aalborg", 1, "city"}).ok());
    ASSERT_TRUE(db->LoadFlexOffers(state.report.offers).ok());
    engine.Publish(std::move(db));
    published_ticks.push_back(state.next_tick - 1);
  };

  std::vector<FlexOffer> offers;
  for (int i = 0; i < 6; ++i) {
    offers.push_back(MakeOffer(i + 1, FlexOfferState::kOffered, i * 8, 1.0, 2.0 + i));
  }
  timeutil::TimeInterval window{T0() - 24 * 60, T0() + 3 * 24 * 60};

  sim::OnlineEnterprise with_hook(params);
  Result<sim::OnlineReport> hooked = with_hook.Run(offers, window);
  ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();

  EXPECT_EQ(static_cast<int>(published_ticks.size()), hooked->ticks);
  EXPECT_EQ(engine.stats().current_generation, hooked->ticks - 1);
  Result<ServeSession> session = engine.OpenSession();
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->Query(SelectRequest()).ok());

  // Byte-identical planning with and without the hook.
  sim::OnlineParams plain = params;
  plain.publish_hook = nullptr;
  Result<sim::OnlineReport> baseline = sim::OnlineEnterprise(plain).Run(offers, window);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->outbox, hooked->outbox);
  EXPECT_EQ(baseline->imbalance_kwh, hooked->imbalance_kwh);
}

}  // namespace
}  // namespace flexvis::serve
