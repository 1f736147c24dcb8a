#include "dw/lod.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "util/parallel.h"
#include "util/strings.h"

namespace flexvis::dw {

namespace {

constexpr int64_t kSlice = timeutil::kMinutesPerSlice;
constexpr const char kLodMagic[8] = {'F', 'L', 'X', 'L', 'O', 'D', '1', '\n'};
/// Items per chunk of the build's span pass, and buckets per chunk of a
/// level. A level-0 fold range covers at least kBucketGrain slices, and a
/// build has at most kMaxFoldRanges of them (each range scans every item's
/// span). The results never depend on these, only the speed.
constexpr size_t kOfferGrain = 1024;
constexpr size_t kBucketGrain = 256;
constexpr size_t kMaxFoldRanges = 16;

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

int64_t CeilDiv(int64_t a, int64_t b) { return -FloorDiv(-a, b); }

/// Serialized bytes of one bucket and of one region-start count.
constexpr size_t kBucketBytes = 48;
constexpr size_t kCountBytes = 8;

/// The slice-aligned span a build covers: the origin rounded down to a
/// slice boundary and the unit slices up to the rounded-up end.
struct SliceSpan {
  int64_t origin_minutes = 0;
  int64_t num_slices = 0;
};

/// The span covering minutes [start, end); nothing when the interval is
/// empty. kOutOfRange, with nothing sized, when it covers more than
/// kMaxLodSlices slices or its aligned ends are not representable.
Result<SliceSpan> SlicesCovering(int64_t start, int64_t end) {
  if (end <= start) return SliceSpan{};
  SliceSpan span;
  int64_t width = 0;
  bool fits = !__builtin_mul_overflow(FloorDiv(start, kSlice), kSlice, &span.origin_minutes) &&
              !__builtin_sub_overflow(end, span.origin_minutes, &width);
  if (fits) {
    span.num_slices = CeilDiv(width, kSlice);
    int64_t covered_end = 0;
    fits = span.num_slices <= kMaxLodSlices &&
           !__builtin_add_overflow(span.origin_minutes, span.num_slices * kSlice, &covered_end);
  }
  if (!fits) {
    return OutOfRangeError(StrFormat("LOD extent [%lld, %lld) covers more than %lld slices",
                                     static_cast<long long>(start), static_cast<long long>(end),
                                     static_cast<long long>(kMaxLodSlices)));
  }
  return span;
}

/// The span of the union extent of fact rows `rows` of `db` (every row when
/// null), read from the earliest_start_min and latest_end_min columns: the
/// extent BuildLodPyramid(offers) takes from the offers the rows rebuild.
/// HasShapeOf and the column build both size by it.
Result<SliceSpan> FactRowsSpan(const Database& db, const std::vector<size_t>* rows) {
  const Table& facts = db.fact_flexoffer();
  const int64_t* starts = facts.FindColumn("earliest_start_min")->Int64Data();
  const int64_t* ends = facts.FindColumn("latest_end_min")->Int64Data();
  const size_t n = rows != nullptr ? rows->size() : facts.NumRows();
  if (n == 0) return SliceSpan{};
  int64_t start = INT64_MAX;
  int64_t end = INT64_MIN;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = rows != nullptr ? (*rows)[i] : i;
    start = std::min(start, starts[row]);
    end = std::max(end, ends[row]);
  }
  return SlicesCovering(start, end);
}

/// The level-0 fold behind both LodBuilder::Add overloads. `source` yields
/// `n` items in canonical order; item i has a placement and an earliest
/// start in minutes (`Placement(i)`, `EarliestStart(i)`), a region
/// (`Region(i)`), a profile of `Units(i)` unit slices, and its
/// run-length-encoded slices (`ForEachSlice(i, emit)` calls
/// emit(duration_slices, min_kwh, max_kwh) in profile order).
///
/// Level 0 is folded in disjoint slice ranges on the pool. Each range walks
/// every item in order and folds the units that land in it, so every bucket
/// sees its contributions in ascending item order, the canonical order,
/// whatever the ranges and the thread count.
template <typename Source>
void FoldLevel0(const Source& source, size_t n, int64_t origin_minutes,
                const std::vector<core::RegionId>& regions, LodLevel& level0) {
  const int64_t num_slices = static_cast<int64_t>(level0.buckets.size());
  // Each item's start slice and unit span [first, last), relative to the
  // origin; ranges skip the items that miss them without reading profiles.
  struct Span {
    int64_t start;
    int64_t first;
    int64_t last;
  };
  std::vector<Span> spans(n);
  ParallelFor(0, n, kOfferGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const int64_t first = FloorDiv(source.Placement(i) - origin_minutes, kSlice);
      spans[i] = Span{FloorDiv(source.EarliestStart(i) - origin_minutes, kSlice), first,
                      first + source.Units(i)};
    }
  });

  const size_t range_slices = std::max<size_t>(
      kBucketGrain, (static_cast<size_t>(num_slices) + kMaxFoldRanges - 1) / kMaxFoldRanges);
  ParallelFor(0, static_cast<size_t>(num_slices), range_slices, [&](size_t lo, size_t hi) {
    const int64_t range_begin = static_cast<int64_t>(lo);
    const int64_t range_end = static_cast<int64_t>(hi);
    for (size_t i = 0; i < n; ++i) {
      const Span& span = spans[i];
      // The earliest-start histograms count each item once, in the range
      // holding its start slice.
      if (span.start >= range_begin && span.start < range_end) {
        ++level0.buckets[static_cast<size_t>(span.start)].starts;
        const core::RegionId region = source.Region(i);
        auto it = std::lower_bound(regions.begin(), regions.end(), region);
        if (it != regions.end() && *it == region) {
          const size_t region_index = static_cast<size_t>(std::distance(regions.begin(), it));
          ++level0.region_starts[region_index * level0.buckets.size() +
                                 static_cast<size_t>(span.start)];
        }
      }
      if (span.last <= range_begin || span.first >= range_end) continue;
      int64_t slice = span.first;
      source.ForEachSlice(i, [&](int64_t duration, double min_kwh, double max_kwh) {
        const int64_t last = std::min(slice + duration, range_end);
        for (int64_t unit = std::max(slice, range_begin); unit < last; ++unit) {
          level0.buckets[static_cast<size_t>(unit)].AddContribution(min_kwh, max_kwh);
        }
        slice += duration;
      });
    }
  });
}

/// FoldLevel0's view of in-memory offers.
struct OfferSource {
  const std::vector<core::FlexOffer>& offers;

  int64_t Placement(size_t i) const { return LodPlacementStart(offers[i]).minutes(); }
  int64_t EarliestStart(size_t i) const { return offers[i].earliest_start.minutes(); }
  core::RegionId Region(size_t i) const { return offers[i].region; }
  int64_t Units(size_t i) const { return offers[i].profile_duration_slices(); }
  template <typename Emit>
  void ForEachSlice(size_t i, Emit emit) const {
    for (const core::ProfileSlice& s : offers[i].profile) {
      emit(s.duration_slices, s.min_energy_kwh, s.max_energy_kwh);
    }
  }
};

/// FoldLevel0's view of fact rows, over the warehouse columns resolved once.
/// A row's canonical slices unit-expand to the units of the offer it
/// rebuilds, up to -0.0 merged beside +0.0, which folds as +0.0 either way.
class ColumnSource {
 public:
  ColumnSource(const Database& db, const std::vector<size_t>& rows)
      : db_(db),
        rows_(rows),
        earliest_start_(db.fact_flexoffer().FindColumn("earliest_start_min")->Int64Data()),
        region_(db.fact_flexoffer().FindColumn("region_id")->Int64Data()),
        units_(db.fact_flexoffer().FindColumn("profile_slices")->Int64Data()),
        scheduled_start_(*db.fact_flexoffer().FindColumn("scheduled_start_min")),
        duration_(db.fact_profile_slice().FindColumn("duration_slices")->Int64Data()),
        min_kwh_(db.fact_profile_slice().FindColumn("min_kwh")->DoubleData()),
        max_kwh_(db.fact_profile_slice().FindColumn("max_kwh")->DoubleData()) {}

  int64_t Placement(size_t i) const {
    const size_t row = rows_[i];
    return scheduled_start_.IsNull(row) ? earliest_start_[row] : scheduled_start_.GetInt64(row);
  }
  int64_t EarliestStart(size_t i) const { return earliest_start_[rows_[i]]; }
  core::RegionId Region(size_t i) const { return region_[rows_[i]]; }
  int64_t Units(size_t i) const { return units_[rows_[i]]; }
  template <typename Emit>
  void ForEachSlice(size_t i, Emit emit) const {
    const Database::RowRange range = db_.ProfileSliceRows(rows_[i]);
    for (size_t r = range.begin; r < range.begin + range.count; ++r) {
      emit(duration_[r], min_kwh_[r], max_kwh_[r]);
    }
  }

 private:
  const Database& db_;
  const std::vector<size_t>& rows_;
  const int64_t* earliest_start_;
  const int64_t* region_;
  const int64_t* units_;
  const Column& scheduled_start_;
  const int64_t* duration_;
  const double* min_kwh_;
  const double* max_kwh_;
};

/// The number of levels LodBuilder::Finish derives from `num_slices` level-0
/// buckets: halve (rounding up) until one bucket is left.
int64_t LevelCount(int64_t num_slices) {
  if (num_slices <= 0) return 0;
  int64_t levels = 1;
  for (int64_t buckets = num_slices; buckets > 1; buckets = (buckets + 1) / 2) ++levels;
  return levels;
}

uint64_t DoubleBits(double d) { return std::bit_cast<uint64_t>(d); }

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendI64(std::string& out, int64_t v) { AppendU64(out, static_cast<uint64_t>(v)); }

void AppendDouble(std::string& out, double d) { AppendU64(out, DoubleBits(d)); }

/// Bounds-checked little-endian reader over the serialized bytes.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU64(uint64_t* v) {
    if (bytes_.size() - pos_ < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t raw = 0;
    if (!ReadU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t raw = 0;
    if (!ReadU64(&raw)) return false;
    *v = std::bit_cast<double>(raw);
    return true;
  }

  bool done() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

void LodBucket::AddContribution(double slice_min_kwh, double slice_max_kwh) {
  // -0.0 + 0.0 is +0.0: a -0 energy folds as +0, which is what it reads back
  // as once the offer went through the JSON codec ("-0" parses as integer 0).
  slice_min_kwh += 0.0;
  slice_max_kwh += 0.0;
  if (count == 0) {
    min_kwh = slice_min_kwh;
    max_kwh = slice_max_kwh;
  } else {
    min_kwh = std::min(min_kwh, slice_min_kwh);
    max_kwh = std::max(max_kwh, slice_max_kwh);
  }
  sum_min_kwh += slice_min_kwh;
  sum_max_kwh += slice_max_kwh;
  ++count;
}

void LodBucket::MergeChild(const LodBucket& child) {
  starts += child.starts;
  if (child.count == 0) return;
  if (count == 0) {
    min_kwh = child.min_kwh;
    max_kwh = child.max_kwh;
  } else {
    min_kwh = std::min(min_kwh, child.min_kwh);
    max_kwh = std::max(max_kwh, child.max_kwh);
  }
  sum_min_kwh += child.sum_min_kwh;
  sum_max_kwh += child.sum_max_kwh;
  count += child.count;
}

bool operator==(const LodBucket& a, const LodBucket& b) {
  return a.count == b.count && a.starts == b.starts &&
         DoubleBits(a.min_kwh) == DoubleBits(b.min_kwh) &&
         DoubleBits(a.max_kwh) == DoubleBits(b.max_kwh) &&
         DoubleBits(a.sum_min_kwh) == DoubleBits(b.sum_min_kwh) &&
         DoubleBits(a.sum_max_kwh) == DoubleBits(b.sum_max_kwh);
}

timeutil::TimePoint LodPlacementStart(const core::FlexOffer& offer) {
  return offer.schedule.has_value() ? offer.schedule->start : offer.earliest_start;
}

Result<LodBucketRange> LodPyramid::Range(int level,
                                         const timeutil::TimeInterval& window) const {
  if (level < 0 || level >= num_levels()) {
    return InvalidArgumentError(
        StrFormat("LOD level %d out of range [0, %d)", level, num_levels()));
  }
  const LodLevel& lvl = levels_[static_cast<size_t>(level)];
  const int64_t buckets = static_cast<int64_t>(lvl.buckets.size());
  if (window.empty()) return LodBucketRange{0, buckets};
  // Half-open overlap, exactly as the raw scan treats FlexOfferFilter's
  // window: unit slice s (covering minutes [origin + 15s, origin + 15(s+1)))
  // is in range iff it overlaps [window.start, window.end). A window ending
  // exactly on a slice boundary therefore excludes the slice that starts
  // there — CeilDiv of the exclusive end, not an inclusive +1.
  int64_t s0 = FloorDiv(window.start.minutes() - origin_.minutes(), kSlice);
  int64_t s1 = CeilDiv(window.end.minutes() - origin_.minutes(), kSlice);
  s0 = std::clamp<int64_t>(s0, 0, num_slices_);
  s1 = std::clamp<int64_t>(s1, 0, num_slices_);
  if (s1 <= s0) return LodBucketRange{0, 0};
  LodBucketRange range;
  range.begin = s0 >> level;
  range.end = std::min(buckets, CeilDiv(s1, lvl.bucket_slices));
  return range;
}

int64_t LodPyramid::RegionStarts(int level, size_t region_index, int64_t bucket) const {
  if (level < 0 || level >= num_levels() || region_index >= regions_.size()) return 0;
  const LodLevel& lvl = levels_[static_cast<size_t>(level)];
  if (bucket < 0 || bucket >= static_cast<int64_t>(lvl.buckets.size())) return 0;
  return lvl.region_starts[region_index * lvl.buckets.size() + static_cast<size_t>(bucket)];
}

int LodPyramid::ChooseLevel(const timeutil::TimeInterval& window, double plot_width_px,
                            double min_bucket_px) const {
  if (levels_.empty()) return 0;
  int64_t s0 = 0;
  int64_t s1 = num_slices_;
  if (!window.empty()) {
    s0 = std::clamp<int64_t>(FloorDiv(window.start.minutes() - origin_.minutes(), kSlice), 0,
                             num_slices_);
    s1 = std::clamp<int64_t>(CeilDiv(window.end.minutes() - origin_.minutes(), kSlice), 0,
                             num_slices_);
  }
  const int64_t span = std::max<int64_t>(1, s1 - s0);
  // Finest level whose on-screen bucket is still >= min_bucket_px wide.
  for (int level = 0; level < num_levels(); ++level) {
    const int64_t on_screen = CeilDiv(span, int64_t{1} << level);
    if (plot_width_px / static_cast<double>(on_screen) >= min_bucket_px) return level;
  }
  return num_levels() - 1;
}

std::string LodPyramid::Serialize() const {
  std::string out;
  out.append(kLodMagic, sizeof(kLodMagic));
  AppendI64(out, origin_.minutes());
  AppendI64(out, num_slices_);
  AppendI64(out, num_offers_);
  AppendI64(out, static_cast<int64_t>(regions_.size()));
  AppendI64(out, num_levels());
  for (core::RegionId region : regions_) AppendI64(out, region);
  for (const LodLevel& lvl : levels_) {
    AppendI64(out, lvl.level);
    AppendI64(out, lvl.bucket_slices);
    AppendI64(out, static_cast<int64_t>(lvl.buckets.size()));
    for (const LodBucket& b : lvl.buckets) {
      AppendI64(out, b.count);
      AppendI64(out, b.starts);
      AppendDouble(out, b.min_kwh);
      AppendDouble(out, b.max_kwh);
      AppendDouble(out, b.sum_min_kwh);
      AppendDouble(out, b.sum_max_kwh);
    }
    for (int64_t s : lvl.region_starts) AppendI64(out, s);
  }
  return out;
}

Result<LodPyramid> LodPyramid::Parse(std::string_view bytes) {
  // Every count is bounded by the bytes left before anything is sized from
  // it, so a corrupt header cannot make Parse allocate past the payload.
  if (bytes.size() < sizeof(kLodMagic) ||
      std::memcmp(bytes.data(), kLodMagic, sizeof(kLodMagic)) != 0) {
    return DataLossError("LOD pyramid: bad magic");
  }
  Reader reader(bytes.substr(sizeof(kLodMagic)));
  LodPyramid pyramid;
  int64_t origin_minutes = 0;
  int64_t num_regions = 0;
  int64_t num_levels = 0;
  if (!reader.ReadI64(&origin_minutes) || !reader.ReadI64(&pyramid.num_slices_) ||
      !reader.ReadI64(&pyramid.num_offers_) || !reader.ReadI64(&num_regions) ||
      !reader.ReadI64(&num_levels)) {
    return DataLossError("LOD pyramid: truncated header");
  }
  pyramid.origin_ = timeutil::TimePoint::FromMinutes(origin_minutes);
  if (pyramid.num_slices_ < 0 || pyramid.num_offers_ < 0 || num_regions < 0 ||
      FloorDiv(origin_minutes, kSlice) * kSlice != origin_minutes) {
    return DataLossError("LOD pyramid: implausible header");
  }
  // Level 0 alone holds num_slices buckets; each region id is one count.
  if (static_cast<uint64_t>(pyramid.num_slices_) > reader.remaining() / kBucketBytes ||
      static_cast<uint64_t>(num_regions) > reader.remaining() / kCountBytes) {
    return DataLossError("LOD pyramid: header counts exceed the payload");
  }
  int64_t extent_end = 0;
  if (__builtin_add_overflow(origin_minutes, pyramid.num_slices_ * kSlice, &extent_end)) {
    return DataLossError("LOD pyramid: extent overflows");
  }
  if (num_levels != LevelCount(pyramid.num_slices_)) {
    return DataLossError(StrFormat("LOD pyramid: %lld levels for %lld slices",
                                   static_cast<long long>(num_levels),
                                   static_cast<long long>(pyramid.num_slices_)));
  }
  pyramid.regions_.resize(static_cast<size_t>(num_regions));
  for (size_t r = 0; r < pyramid.regions_.size(); ++r) {
    if (!reader.ReadI64(&pyramid.regions_[r])) {
      return DataLossError("LOD pyramid: truncated region ids");
    }
    if (r > 0 && pyramid.regions_[r] <= pyramid.regions_[r - 1]) {
      return DataLossError("LOD pyramid: region ids not ascending and unique");
    }
  }
  pyramid.levels_.resize(static_cast<size_t>(num_levels));
  for (int64_t l = 0; l < num_levels; ++l) {
    LodLevel& lvl = pyramid.levels_[static_cast<size_t>(l)];
    int64_t level_number = 0;
    int64_t num_buckets = 0;
    if (!reader.ReadI64(&level_number) || !reader.ReadI64(&lvl.bucket_slices) ||
        !reader.ReadI64(&num_buckets)) {
      return DataLossError("LOD pyramid: truncated level header");
    }
    lvl.level = static_cast<int>(level_number);
    if (level_number != l || lvl.bucket_slices != (int64_t{1} << l) ||
        num_buckets != CeilDiv(pyramid.num_slices_, lvl.bucket_slices)) {
      return DataLossError(StrFormat("LOD pyramid: inconsistent level %lld geometry",
                                     static_cast<long long>(l)));
    }
    if (static_cast<uint64_t>(num_buckets) > reader.remaining() / kBucketBytes) {
      return DataLossError("LOD pyramid: truncated bucket");
    }
    lvl.buckets.resize(static_cast<size_t>(num_buckets));
    for (LodBucket& b : lvl.buckets) {
      if (!reader.ReadI64(&b.count) || !reader.ReadI64(&b.starts) ||
          !reader.ReadDouble(&b.min_kwh) || !reader.ReadDouble(&b.max_kwh) ||
          !reader.ReadDouble(&b.sum_min_kwh) || !reader.ReadDouble(&b.sum_max_kwh)) {
        return DataLossError("LOD pyramid: truncated bucket");
      }
      if (b.count < 0 || b.starts < 0) return DataLossError("LOD pyramid: negative count");
    }
    int64_t num_region_starts = 0;
    if (__builtin_mul_overflow(num_regions, num_buckets, &num_region_starts) ||
        static_cast<uint64_t>(num_region_starts) > reader.remaining() / kCountBytes) {
      return DataLossError("LOD pyramid: truncated region starts");
    }
    lvl.region_starts.resize(static_cast<size_t>(num_region_starts));
    for (int64_t& s : lvl.region_starts) {
      if (!reader.ReadI64(&s)) return DataLossError("LOD pyramid: truncated region starts");
      if (s < 0) return DataLossError("LOD pyramid: negative count");
    }
  }
  if (!reader.done()) return DataLossError("LOD pyramid: trailing bytes");
  return pyramid;
}

bool LodPyramid::HasShapeOf(const Database& db) const {
  if (num_offers_ != static_cast<int64_t>(db.NumFlexOffers()) || regions_ != LodRegions(db)) {
    return false;
  }
  const Result<SliceSpan> span = FactRowsSpan(db, nullptr);
  return span.ok() && origin_.minutes() == span->origin_minutes &&
         num_slices_ == span->num_slices;
}

LodBuilder::LodBuilder(timeutil::TimeInterval extent, std::vector<core::RegionId> regions) {
  pyramid_.regions_ = std::move(regions);
  std::sort(pyramid_.regions_.begin(), pyramid_.regions_.end());
  pyramid_.regions_.erase(std::unique(pyramid_.regions_.begin(), pyramid_.regions_.end()),
                          pyramid_.regions_.end());
  const Result<SliceSpan> span = SlicesCovering(extent.start.minutes(), extent.end.minutes());
  if (!span.ok() || span->num_slices == 0) return;
  pyramid_.origin_ = timeutil::TimePoint::FromMinutes(span->origin_minutes);
  pyramid_.num_slices_ = span->num_slices;
  LodLevel level0;
  level0.level = 0;
  level0.bucket_slices = 1;
  level0.buckets.resize(static_cast<size_t>(pyramid_.num_slices_));
  level0.region_starts.assign(pyramid_.regions_.size() * level0.buckets.size(), 0);
  pyramid_.levels_.push_back(std::move(level0));
}

void LodBuilder::Add(const std::vector<core::FlexOffer>& offers) {
  pyramid_.num_offers_ += static_cast<int64_t>(offers.size());
  if (pyramid_.num_slices_ == 0 || offers.empty()) return;
  FoldLevel0(OfferSource{offers}, offers.size(), pyramid_.origin_.minutes(), pyramid_.regions_,
             pyramid_.levels_[0]);
}

void LodBuilder::Add(const Database& db, const std::vector<size_t>& rows) {
  pyramid_.num_offers_ += static_cast<int64_t>(rows.size());
  if (pyramid_.num_slices_ == 0 || rows.empty()) return;
  FoldLevel0(ColumnSource(db, rows), rows.size(), pyramid_.origin_.minutes(), pyramid_.regions_,
             pyramid_.levels_[0]);
}

LodPyramid LodBuilder::Finish() {
  finished_ = true;
  const size_t num_regions = pyramid_.regions_.size();
  while (!pyramid_.levels_.empty() && pyramid_.levels_.back().buckets.size() > 1) {
    const LodLevel& prev = pyramid_.levels_.back();
    LodLevel next;
    next.level = prev.level + 1;
    next.bucket_slices = prev.bucket_slices * 2;
    next.buckets.resize((prev.buckets.size() + 1) / 2);
    next.region_starts.assign(num_regions * next.buckets.size(), 0);
    LodLevel& out = next;
    ParallelFor(0, out.buckets.size(), kBucketGrain, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        out.buckets[b] = prev.buckets[2 * b];
        if (2 * b + 1 < prev.buckets.size()) out.buckets[b].MergeChild(prev.buckets[2 * b + 1]);
        for (size_t r = 0; r < num_regions; ++r) {
          int64_t starts = prev.region_starts[r * prev.buckets.size() + 2 * b];
          if (2 * b + 1 < prev.buckets.size()) {
            starts += prev.region_starts[r * prev.buckets.size() + 2 * b + 1];
          }
          out.region_starts[r * out.buckets.size() + b] = starts;
        }
      }
    });
    pyramid_.levels_.push_back(std::move(next));
  }
  return std::move(pyramid_);
}

LodPyramid BuildLodPyramid(const std::vector<core::FlexOffer>& offers,
                           std::vector<core::RegionId> regions) {
  timeutil::TimeInterval extent;
  for (const core::FlexOffer& offer : offers) {
    extent = extent.empty() ? offer.extent() : extent.Span(offer.extent());
  }
  LodBuilder builder(extent, std::move(regions));
  builder.Add(offers);
  return builder.Finish();
}

std::vector<core::RegionId> LodRegions(const Database& db) {
  std::vector<core::RegionId> regions;
  regions.reserve(db.regions().size());
  for (const RegionInfo& region : db.regions()) regions.push_back(region.id);
  std::sort(regions.begin(), regions.end());
  return regions;
}

Result<LodPyramid> BuildLodPyramid(const Database& db, const FlexOfferFilter& filter) {
  Result<std::vector<size_t>> rows = db.SelectRows(filter);
  if (!rows.ok()) return rows.status();
  const Result<SliceSpan> span = FactRowsSpan(db, &*rows);
  if (!span.ok()) return span.status();
  const timeutil::TimePoint origin = timeutil::TimePoint::FromMinutes(span->origin_minutes);
  LodBuilder builder(timeutil::TimeInterval(origin, origin + span->num_slices * kSlice),
                     LodRegions(db));
  builder.Add(db, *rows);
  return builder.Finish();
}

}  // namespace flexvis::dw
