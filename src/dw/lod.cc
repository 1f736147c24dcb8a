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
/// Offers per build chunk; fixed (never thread-count derived) so the
/// counting-sort gather produces identical scatter positions everywhere.
constexpr size_t kOfferGrain = 1024;
constexpr size_t kBucketGrain = 256;

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q;
}

int64_t CeilDiv(int64_t a, int64_t b) { return -FloorDiv(-a, b); }

/// Serialized bytes of one bucket and of one region-start count.
constexpr size_t kBucketBytes = 48;
constexpr size_t kCountBytes = 8;

/// The slice-aligned span a build over `extent` covers: the origin rounded
/// down to a slice boundary and the unit slices up to the rounded-up end.
struct SliceSpan {
  int64_t origin_minutes = 0;
  int64_t num_slices = 0;
};

SliceSpan SlicesCovering(const timeutil::TimeInterval& extent) {
  if (extent.empty()) return {};
  const int64_t origin_minutes = FloorDiv(extent.start.minutes(), kSlice) * kSlice;
  return {origin_minutes,
          std::max<int64_t>(0, CeilDiv(extent.end.minutes() - origin_minutes, kSlice))};
}

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
  // The union extent of the offers, as BuildLodPyramid derives it.
  timeutil::TimeInterval extent;
  const size_t n = db.NumFlexOffers();
  if (n > 0) {
    const Table& facts = db.fact_flexoffer();
    const int64_t* starts = facts.FindColumn("earliest_start_min")->Int64Data();
    const int64_t* ends = facts.FindColumn("latest_end_min")->Int64Data();
    extent = timeutil::TimeInterval(
        timeutil::TimePoint::FromMinutes(*std::min_element(starts, starts + n)),
        timeutil::TimePoint::FromMinutes(*std::max_element(ends, ends + n)));
  }
  const SliceSpan span = SlicesCovering(extent);
  return origin_.minutes() == span.origin_minutes && num_slices_ == span.num_slices;
}

LodBuilder::LodBuilder(timeutil::TimeInterval extent, std::vector<core::RegionId> regions) {
  pyramid_.regions_ = std::move(regions);
  std::sort(pyramid_.regions_.begin(), pyramid_.regions_.end());
  pyramid_.regions_.erase(std::unique(pyramid_.regions_.begin(), pyramid_.regions_.end()),
                          pyramid_.regions_.end());
  if (extent.empty()) return;
  const SliceSpan span = SlicesCovering(extent);
  pyramid_.origin_ = timeutil::TimePoint::FromMinutes(span.origin_minutes);
  pyramid_.num_slices_ = span.num_slices;
  if (pyramid_.num_slices_ == 0) return;
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
  LodLevel& level0 = pyramid_.levels_[0];
  const int64_t num_slices = pyramid_.num_slices_;
  const int64_t origin_minutes = pyramid_.origin_.minutes();

  // Earliest-start histograms (integer counters: order-free, so a plain
  // serial pass keeps them exact under every batch split).
  for (const core::FlexOffer& offer : offers) {
    const int64_t slice = FloorDiv(offer.earliest_start.minutes() - origin_minutes, kSlice);
    if (slice < 0 || slice >= num_slices) continue;
    ++level0.buckets[static_cast<size_t>(slice)].starts;
    auto it = std::lower_bound(pyramid_.regions_.begin(), pyramid_.regions_.end(), offer.region);
    if (it != pyramid_.regions_.end() && *it == offer.region) {
      const size_t region_index =
          static_cast<size_t>(std::distance(pyramid_.regions_.begin(), it));
      ++level0.region_starts[region_index * level0.buckets.size() + static_cast<size_t>(slice)];
    }
  }

  // Profile contributions, folded into each bucket in ascending offer order
  // (the canonical order) at any thread count: gather per chunk, counting-
  // sort by slice with chunk offsets accumulated in ascending chunk order,
  // then fold each slice's run serially inside slice-owning chunks.
  struct Contribution {
    double min_kwh;
    double max_kwh;
  };
  const size_t num_chunks = parallel_internal::NumChunks(0, offers.size(), kOfferGrain);
  std::vector<std::vector<int64_t>> chunk_slices(num_chunks);
  std::vector<std::vector<Contribution>> chunk_contrib(num_chunks);
  std::vector<std::vector<int64_t>> chunk_counts(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      const size_t begin = c * kOfferGrain;
      const size_t end = std::min(offers.size(), begin + kOfferGrain);
      std::vector<int64_t>& slices = chunk_slices[c];
      std::vector<Contribution>& contrib = chunk_contrib[c];
      std::vector<int64_t>& counts = chunk_counts[c];
      counts.assign(static_cast<size_t>(num_slices), 0);
      for (size_t i = begin; i < end; ++i) {
        const core::FlexOffer& offer = offers[i];
        const int64_t first =
            FloorDiv(LodPlacementStart(offer).minutes() - origin_minutes, kSlice);
        const std::vector<core::ProfileSlice> unit = offer.UnitProfile();
        for (size_t s = 0; s < unit.size(); ++s) {
          const int64_t slice = first + static_cast<int64_t>(s);
          if (slice < 0 || slice >= num_slices) continue;
          slices.push_back(slice);
          contrib.push_back(Contribution{unit[s].min_energy_kwh, unit[s].max_energy_kwh});
          ++counts[static_cast<size_t>(slice)];
        }
      }
    }
  });

  // Per-slice totals and scatter positions, chunks folded in ascending
  // order; chunk_counts rows become each chunk's write cursors.
  std::vector<int64_t> offsets(static_cast<size_t>(num_slices) + 1, 0);
  for (size_t c = 0; c < num_chunks; ++c) {
    for (int64_t s = 0; s < num_slices; ++s) {
      offsets[static_cast<size_t>(s) + 1] += chunk_counts[c][static_cast<size_t>(s)];
    }
  }
  for (int64_t s = 0; s < num_slices; ++s) {
    offsets[static_cast<size_t>(s) + 1] += offsets[static_cast<size_t>(s)];
  }
  std::vector<int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t c = 0; c < num_chunks; ++c) {
    for (int64_t s = 0; s < num_slices; ++s) {
      const int64_t n = chunk_counts[c][static_cast<size_t>(s)];
      chunk_counts[c][static_cast<size_t>(s)] = cursor[static_cast<size_t>(s)];
      cursor[static_cast<size_t>(s)] += n;
    }
  }

  std::vector<Contribution> sorted(static_cast<size_t>(offsets.back()));
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      std::vector<int64_t>& pos = chunk_counts[c];
      for (size_t i = 0; i < chunk_slices[c].size(); ++i) {
        sorted[static_cast<size_t>(pos[static_cast<size_t>(chunk_slices[c][i])]++)] =
            chunk_contrib[c][i];
      }
    }
  });

  ParallelFor(0, static_cast<size_t>(num_slices), kBucketGrain,
              [&](size_t slice_begin, size_t slice_end) {
                for (size_t s = slice_begin; s < slice_end; ++s) {
                  LodBucket& bucket = level0.buckets[s];
                  for (int64_t i = offsets[s]; i < offsets[s + 1]; ++i) {
                    bucket.AddContribution(sorted[static_cast<size_t>(i)].min_kwh,
                                           sorted[static_cast<size_t>(i)].max_kwh);
                  }
                }
              });
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
  Result<std::vector<core::FlexOffer>> offers = db.SelectFlexOffers(filter);
  if (!offers.ok()) return offers.status();
  return BuildLodPyramid(*offers, LodRegions(db));
}

}  // namespace flexvis::dw
