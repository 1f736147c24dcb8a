// The pooled flex-offer line codec (core::EncodeFlexOfferLines /
// DecodeFlexOfferLines) and the chunk-parallel warehouse paths built on it:
// every result must equal the serial loop the codec replaced, at every
// thread count, including where the first failing line sits relative to the
// decode chunks.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/messages.h"
#include "dw/persistence.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "reseal_manifest.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/fileio.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexvis {
namespace {

using core::FlexOffer;
using core::FlexOfferLineError;
using timeutil::TimeInterval;
using timeutil::TimePoint;

constexpr size_t kChunk = core::kFlexOfferLinesDecodeChunkBytes;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0); }

/// The serial JSONL loop the codec replaced: one line at a time, stopping at
/// the first record DecodeFlexOffer refuses or (when asked) the first id an
/// earlier line carried.
struct SerialResult {
  bool ok = true;
  std::vector<FlexOffer> offers;
  FlexOfferLineError error;
};

SerialResult SerialDecode(std::string_view lines, bool reject_duplicates) {
  SerialResult result;
  std::unordered_set<core::FlexOfferId> seen;
  size_t start = 0;
  size_t line_number = 0;
  while (start < lines.size()) {
    size_t end = lines.find('\n', start);
    if (end == std::string_view::npos) end = lines.size();
    const std::string_view line = lines.substr(start, end - start);
    ++line_number;
    if (!StripWhitespace(line).empty()) {
      Result<FlexOffer> offer = core::DecodeFlexOffer(line);
      if (!offer.ok()) {
        result.ok = false;
        result.error = {start, line_number, offer.status(), core::kInvalidFlexOfferId};
        return result;
      }
      if (reject_duplicates && !seen.insert(offer->id).second) {
        result.ok = false;
        result.error = {start, line_number, OkStatus(), offer->id};
        return result;
      }
      result.offers.push_back(*std::move(offer));
    }
    start = end + 1;
  }
  return result;
}

std::string Concat(const std::vector<FlexOffer>& offers) {
  std::string out;
  for (const FlexOffer& offer : offers) out += core::EncodeFlexOffer(offer) + '\n';
  return out;
}

/// Index of the first line of `text` starting at or after byte `pos`.
size_t LineAt(const std::string& text, size_t pos) {
  size_t line = 0;
  for (size_t start = 0; start < pos; start = text.find('\n', start) + 1) ++line;
  return line;
}

/// `text` with line `index` replaced by `replacement` (no newline).
std::string WithLine(const std::string& text, size_t index, const std::string& replacement) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  lines[index] = replacement;
  return StrJoin(lines, "\n");
}

/// `text` with a whitespace-only line inserted so that the following line,
/// `*line_at_cut`, starts exactly on the chunk cut at byte kChunk * k.
std::string AlignedToCut(const std::string& text, size_t k, size_t* line_at_cut) {
  const size_t cut = kChunk * k;
  size_t start = 0;
  size_t line = 0;
  for (size_t next = text.find('\n') + 1; next < cut; next = text.find('\n', start) + 1) {
    start = next;
    ++line;
  }
  // The line at `start` is the last to start before the cut; padding of
  // cut - start bytes moves it onto the cut.
  *line_at_cut = line + 1;
  return text.substr(0, start) + std::string(cut - start - 1, ' ') + '\n' + text.substr(start);
}

class FlexOfferLinesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams params;
    params.seed = 5150;
    params.num_prosumers = 700;
    params.offers_per_prosumer = 5.0;
    params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    workload_ = *generator.Generate(params);
    text_ = Concat(workload_.offers);
    // Several decode chunks and several encode chunks.
    ASSERT_GT(text_.size(), 3 * kChunk);
    ASSERT_GT(workload_.offers.size(), 3 * core::kFlexOfferLinesEncodeChunk);
  }

  void TearDown() override { SetParallelThreadCount(0); }

  /// Decodes `text` at 1, 2 and 8 threads; every run must match the serial
  /// loop exactly: offers, or the failing line's offset, number and reason.
  void ExpectMatchesSerial(const std::string& text, core::DuplicateIds duplicates) {
    const SerialResult want = SerialDecode(text, duplicates == core::DuplicateIds::kReject);
    for (int threads : {1, 2, 8}) {
      SetParallelThreadCount(threads);
      std::vector<FlexOffer> got{FlexOffer{}};
      FlexOfferLineError error;
      const bool ok = core::DecodeFlexOfferLines(text, duplicates, &got, &error);
      ASSERT_EQ(ok, want.ok) << threads << " threads";
      if (ok) {
        ASSERT_EQ(got.size(), want.offers.size()) << threads << " threads";
        EXPECT_EQ(Concat(got), Concat(want.offers)) << threads << " threads";
        continue;
      }
      EXPECT_TRUE(got.empty());
      EXPECT_EQ(error.byte_offset, want.error.byte_offset) << threads << " threads";
      EXPECT_EQ(error.line_number, want.error.line_number) << threads << " threads";
      EXPECT_EQ(error.bad_record.code(), want.error.bad_record.code()) << threads << " threads";
      EXPECT_EQ(error.bad_record.message(), want.error.bad_record.message())
          << threads << " threads";
      EXPECT_EQ(error.duplicate_id, want.error.duplicate_id) << threads << " threads";
    }
  }

  geo::Atlas atlas_ = geo::Atlas::MakeDenmark();
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(2, 2, 2, 3);
  sim::Workload workload_;
  std::string text_;
};

TEST_F(FlexOfferLinesTest, EncodeEqualsTheSerialConcatenation) {
  for (int threads : {1, 2, 8}) {
    SetParallelThreadCount(threads);
    EXPECT_EQ(core::EncodeFlexOfferLines(workload_.offers), text_) << threads << " threads";
  }
  EXPECT_EQ(core::EncodeFlexOfferLines({}), "");
  EXPECT_EQ(core::EncodeFlexOfferLines({workload_.offers.front()}),
            core::EncodeFlexOffer(workload_.offers.front()) + '\n');
}

TEST_F(FlexOfferLinesTest, DecodeRoundTripsAtEveryThreadCount) {
  ExpectMatchesSerial(text_, core::DuplicateIds::kReject);
  ExpectMatchesSerial(text_, core::DuplicateIds::kAllow);
  std::vector<FlexOffer> decoded;
  ASSERT_TRUE(core::DecodeFlexOfferLines(text_, core::DuplicateIds::kReject, &decoded, nullptr));
  EXPECT_EQ(core::EncodeFlexOfferLines(decoded), text_);
}

TEST_F(FlexOfferLinesTest, EmptyBlankAndUnterminatedInputs) {
  for (const std::string& text : {std::string(), std::string("\n"), std::string("\n\n \t\n"),
                                 std::string("   "), std::string(kChunk + 7, '\n')}) {
    ExpectMatchesSerial(text, core::DuplicateIds::kReject);
    std::vector<FlexOffer> decoded{FlexOffer{}};
    EXPECT_TRUE(core::DecodeFlexOfferLines(text, core::DuplicateIds::kReject, &decoded, nullptr));
    EXPECT_TRUE(decoded.empty());
  }
  // Blank and whitespace-only lines between records, CRLF endings, and a
  // last record without its newline.
  const std::string one = core::EncodeFlexOffer(workload_.offers[0]);
  const std::string two = core::EncodeFlexOffer(workload_.offers[1]);
  ExpectMatchesSerial("\n  \t \n" + one + "\r\n\n \n" + two, core::DuplicateIds::kReject);
  std::string unterminated = text_;
  unterminated.pop_back();
  ExpectMatchesSerial(unterminated, core::DuplicateIds::kReject);
  // One record longer than a chunk (JSON whitespace inside it) leaves the
  // chunks it covers empty.
  std::string wide = one;
  wide.insert(1, 2 * kChunk + 3, ' ');
  ExpectMatchesSerial(two + "\n" + wide + "\n" + text_, core::DuplicateIds::kAllow);
  ExpectMatchesSerial(two + "\n" + wide + "\n" + text_, core::DuplicateIds::kReject);
}

TEST_F(FlexOfferLinesTest, FirstFailureMatchesTheSerialLoopInEveryChunk) {
  const size_t num_lines = workload_.offers.size();
  const size_t middle = LineAt(text_, text_.size() / 2);
  const std::string bad = "{\"id\":7,\"profile\":[";
  const std::string copy_of_first = core::EncodeFlexOffer(workload_.offers.front());
  for (size_t line : {size_t{0}, size_t{1}, middle, num_lines - 1}) {
    SCOPED_TRACE(StrFormat("line %zu", line));
    ExpectMatchesSerial(WithLine(text_, line, bad), core::DuplicateIds::kReject);
    ExpectMatchesSerial(WithLine(text_, line, bad), core::DuplicateIds::kAllow);
    if (line > 0) {
      ExpectMatchesSerial(WithLine(text_, line, copy_of_first), core::DuplicateIds::kReject);
      ExpectMatchesSerial(WithLine(text_, line, copy_of_first), core::DuplicateIds::kAllow);
    }
  }
  // A duplicate before a bad record is the first failure, and the reverse.
  std::string both = WithLine(text_, middle, copy_of_first);
  ExpectMatchesSerial(both + bad + "\n", core::DuplicateIds::kReject);
  ExpectMatchesSerial(WithLine(text_, 1, bad) + copy_of_first + "\n", core::DuplicateIds::kReject);
}

TEST_F(FlexOfferLinesTest, FirstFailureExactlyAtAChunkCut) {
  const std::string bad = "{\"id\":7,\"profile\":[";
  const std::string copy_of_first = core::EncodeFlexOffer(workload_.offers.front());
  for (size_t k : {size_t{1}, size_t{2}}) {
    size_t line_at_cut = 0;
    const std::string aligned = AlignedToCut(text_, k, &line_at_cut);
    std::vector<std::string> lines = StrSplit(aligned, '\n');
    size_t offset = 0;
    for (size_t i = 0; i < line_at_cut; ++i) offset += lines[i].size() + 1;
    ASSERT_EQ(offset, k * kChunk);
    ExpectMatchesSerial(aligned, core::DuplicateIds::kReject);
    // On the line starting at the cut, and on the line before the padding.
    for (size_t line : {line_at_cut, line_at_cut - 2}) {
      SCOPED_TRACE(StrFormat("cut %zu line %zu", k, line));
      std::vector<std::string> planted = lines;
      planted[line] = bad;
      ExpectMatchesSerial(StrJoin(planted, "\n"), core::DuplicateIds::kReject);
      planted[line] = copy_of_first;
      ExpectMatchesSerial(StrJoin(planted, "\n"), core::DuplicateIds::kReject);
    }
    // On the line ending exactly at the cut: the padding line, made a bad
    // record of the same length.
    std::vector<std::string> planted = lines;
    std::string& padding = planted[line_at_cut - 1];
    if (!padding.empty()) padding[0] = '{';
    ExpectMatchesSerial(StrJoin(planted, "\n"), core::DuplicateIds::kReject);
  }
}

TEST_F(FlexOfferLinesTest, WarehouseLoadReportsTheSerialLoopsMessage) {
  // Through LoadDatabase: the status of a planted bad record or duplicate
  // id on a chunk cut is the one the serial loop formatted.
  dw::Database db;
  ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(workload_, db).ok());
  // Per process: ctest may run the suite's tests concurrently.
  const std::string dir = (std::filesystem::temp_directory_path() /
                           ("flexvis_offer_lines." + std::to_string(::getpid())))
                              .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(dw::SaveDatabase(db, dir).ok());
  const std::string offers_path = dir + "/flexoffers.jsonl";
  Result<std::string> saved = ReadFileToString(offers_path);
  ASSERT_TRUE(saved.ok());
  ASSERT_GT(saved->size(), 2 * kChunk);

  size_t line_at_cut = 0;
  std::vector<std::string> lines = StrSplit(AlignedToCut(*saved, 1, &line_at_cut), '\n');
  for (const std::string& planted_line :
       {std::string("{\"id\":7,\"profile\":["), core::EncodeFlexOffer(workload_.offers[3])}) {
    std::vector<std::string> planted = lines;
    planted[line_at_cut] = planted_line;
    const std::string text = StrJoin(planted, "\n");
    const SerialResult want = SerialDecode(text, true);
    ASSERT_FALSE(want.ok);
    const Status expected =
        want.error.bad_record.ok()
            ? InvalidArgumentError(StrFormat(
                  "flexoffers.jsonl: duplicate flex-offer id %lld at line %zu",
                  static_cast<long long>(want.error.duplicate_id), want.error.line_number))
            : InvalidArgumentError(StrFormat("flexoffers.jsonl: bad offer record near byte %zu: %s",
                                             want.error.byte_offset,
                                             want.error.bad_record.message().c_str()));
    ASSERT_TRUE(WriteFileAtomic(offers_path, text).ok());
    ASSERT_TRUE(ResealManifest(dir).ok());
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      Result<dw::Database> loaded = dw::LoadDatabase(dir);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), expected.code()) << threads << " threads";
      EXPECT_EQ(loaded.status().message(), expected.message()) << threads << " threads";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(FlexOfferLinesTest, SelectSaveAndLoadAreIdenticalAtOneAndEightThreads) {
  // A planned warehouse: schedules, aggregates and their provenance, more
  // offers than one reconstruct chunk and more bytes than one decode chunk.
  dw::Database db;
  ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(workload_, db).ok());
  sim::Enterprise enterprise;
  ASSERT_TRUE(enterprise.RunDayAhead(db, TimeInterval(T0(), T0() + timeutil::kMinutesPerDay)).ok());
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("flexvis_offer_lines_parallel." + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  std::vector<std::string> selected, saved, reloaded;
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    Result<std::vector<FlexOffer>> offers = db.SelectFlexOffers(dw::FlexOfferFilter{});
    ASSERT_TRUE(offers.ok());
    ASSERT_GT(offers->size(), 2 * size_t{1024});
    selected.push_back(Concat(*offers));

    const std::string dir = (root / std::to_string(threads)).string();
    ASSERT_TRUE(dw::SaveDatabase(db, dir).ok());
    std::string bytes;
    for (const char* file : {"dim_prosumer.csv", "dim_region.csv", "dim_grid_node.csv",
                             "flexoffers.jsonl", "lod.bin", "MANIFEST.json"}) {
      Result<std::string> content = ReadFileToString(dir + "/" + file);
      ASSERT_TRUE(content.ok()) << file;
      bytes += *content;
    }
    saved.push_back(bytes);

    Result<dw::Database> loaded = dw::LoadDatabase(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    Result<std::vector<FlexOffer>> again = loaded->SelectFlexOffers(dw::FlexOfferFilter{});
    ASSERT_TRUE(again.ok());
    reloaded.push_back(Concat(*again));
    EXPECT_EQ(loaded->fact_profile_slice().NumRows(), db.fact_profile_slice().NumRows());
    EXPECT_EQ(loaded->bridge_aggregation().NumRows(), db.bridge_aggregation().NumRows());
  }
  EXPECT_EQ(selected[0], selected[1]);
  EXPECT_EQ(saved[0], saved[1]);
  EXPECT_EQ(reloaded[0], reloaded[1]);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace flexvis
