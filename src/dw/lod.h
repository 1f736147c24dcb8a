#ifndef FLEXVIS_DW_LOD_H_
#define FLEXVIS_DW_LOD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/flex_offer.h"
#include "dw/database.h"
#include "time/time_point.h"
#include "util/status.h"

namespace flexvis::dw {

/// Multi-resolution level-of-detail pyramid over the flex-offer profiles —
/// the warehouse-side half of the O(pixels) render path. Level 0 holds one
/// bucket per 15-minute unit slice; level L buckets cover 2^L consecutive
/// slices, up to a top level whose single bucket covers the whole extent.
/// A view at any zoom picks the level whose buckets are at least a couple
/// of pixels wide and renders O(buckets-on-screen) aggregates instead of
/// O(offers) draw ops.
///
/// Determinism contract (the LOD oracle tests pin this byte-for-byte): the
/// canonical accumulation order of every level-0 bucket is ascending offer
/// order — exactly the left fold a naive serial loop produces — and every
/// level L > 0 bucket is its level L-1 children merged left-to-right. The
/// parallel build reproduces that order at any thread count by gathering
/// contributions per slice with a grain-chunked counting sort (chunk
/// offsets accumulated in ascending chunk order) and folding each bucket's
/// list serially inside a ParallelFor whose chunks own disjoint buckets.

/// One time bucket's aggregates. `count` is the number of (offer, unit
/// slice) profile contributions overlapping the bucket; `starts` counts
/// offers whose earliest start falls in the bucket (the map-view histogram
/// measure). min/max are over per-slice min/max energies of the
/// contributions; sums accumulate in canonical order so means derive
/// exactly.
struct LodBucket {
  int64_t count = 0;
  int64_t starts = 0;
  double min_kwh = 0.0;
  double max_kwh = 0.0;
  double sum_min_kwh = 0.0;
  double sum_max_kwh = 0.0;

  bool empty() const { return count == 0; }
  double mean_min_kwh() const { return count > 0 ? sum_min_kwh / static_cast<double>(count) : 0.0; }
  double mean_max_kwh() const { return count > 0 ? sum_max_kwh / static_cast<double>(count) : 0.0; }

  /// Folds one profile contribution (canonical order: ascending offer). A
  /// -0.0 energy folds as +0.0, so a pyramid built before a save equals one
  /// built after the reload.
  void AddContribution(double slice_min_kwh, double slice_max_kwh);
  /// Folds a child bucket of the next finer level (canonical order: left
  /// child first). `starts` and `count` add; min/max widen; sums add.
  void MergeChild(const LodBucket& child);
};

/// Bitwise equality (doubles compared by bit pattern, the determinism bar).
bool operator==(const LodBucket& a, const LodBucket& b);
inline bool operator!=(const LodBucket& a, const LodBucket& b) { return !(a == b); }

/// One resolution of the pyramid: buckets of 2^level unit slices, plus the
/// per-region earliest-start counts the map view histograms (region-major:
/// entry [r * buckets.size() + b] counts region r's starts in bucket b).
struct LodLevel {
  int level = 0;
  int64_t bucket_slices = 1;  // == 1 << level
  std::vector<LodBucket> buckets;
  std::vector<int64_t> region_starts;
};

/// Half-open bucket index range [begin, end) of one level.
struct LodBucketRange {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t size() const { return end > begin ? end - begin : 0; }
  bool empty() const { return end <= begin; }
};

class LodPyramid {
 public:
  LodPyramid() = default;

  /// Slice-aligned start of the covered extent.
  timeutil::TimePoint origin() const { return origin_; }
  /// Unit slices covered; 0 for an empty pyramid.
  int64_t num_slices() const { return num_slices_; }
  /// Offers folded in (each counted once, whether or not it contributed).
  int64_t num_offers() const { return num_offers_; }
  /// The covered extent [origin, origin + 15 * num_slices).
  timeutil::TimeInterval extent() const {
    return timeutil::TimeInterval(origin_, origin_ + num_slices_ * timeutil::kMinutesPerSlice);
  }
  bool empty() const { return num_slices_ == 0; }

  /// Region ids of the region_starts rows, ascending.
  const std::vector<core::RegionId>& regions() const { return regions_; }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const LodLevel& level(int level) const { return levels_[static_cast<size_t>(level)]; }

  /// Buckets of `level` overlapping `window`, with exactly the raw scan's
  /// half-open interval semantics (FlexOfferFilter::window): a bucket is
  /// included iff its [start, end) slice span shares at least one minute
  /// with [window.start, window.end). An empty window means "no
  /// constraint" — the full level. InvalidArgument for a bad level.
  Result<LodBucketRange> Range(int level, const timeutil::TimeInterval& window) const;

  /// Earliest-start count of region row `region_index` in `bucket` of
  /// `level` (0 when the pyramid tracks no regions).
  int64_t RegionStarts(int level, size_t region_index, int64_t bucket) const;

  /// The finest level whose on-screen bucket width is at least
  /// `min_bucket_px` when `window` (empty = full extent) maps onto
  /// `plot_width_px` pixels — i.e. the most buckets that keep each one
  /// visible. Clamped to [0, num_levels).
  int ChooseLevel(const timeutil::TimeInterval& window, double plot_width_px,
                  double min_bucket_px = 2.0) const;

  /// Deterministic binary encoding (fixed little-endian layout, doubles as
  /// bit patterns): equal pyramids serialize to equal bytes. This is the
  /// `lod.bin` payload persisted inside warehouse store generations.
  std::string Serialize() const;
  /// Decodes Serialize's bytes. kDataLoss unless they hold the geometry a
  /// LodBuilder produces: an aligned origin, ascending unique region ids,
  /// exactly Finish's level count, each level's bucket count, non-negative
  /// counts and no trailing bytes. Every count is checked against the bytes
  /// left before anything is sized from it.
  static Result<LodPyramid> Parse(std::string_view bytes);

  /// True when this pyramid has the shape a build over all of `db` gives:
  /// the same offer count, the same region ids (LodRegions) and the same
  /// slice extent, read from the fact table's earliest_start_min and
  /// latest_end_min columns. Bucket contents are not compared.
  bool HasShapeOf(const Database& db) const;

 private:
  friend class LodBuilder;

  timeutil::TimePoint origin_;
  int64_t num_slices_ = 0;
  int64_t num_offers_ = 0;
  std::vector<core::RegionId> regions_;
  std::vector<LodLevel> levels_;
};

/// The profile placement the pyramid aggregates (and the basic view draws):
/// the scheduled start when assigned, the earliest start otherwise.
timeutil::TimePoint LodPlacementStart(const core::FlexOffer& offer);

/// Incremental pyramid builder: feed offers in batches (ascending global
/// order), then Finish(). Feeding the same offers in any batch split yields
/// byte-identical pyramids — level-0 accumulation order is the global offer
/// order either way — so a 10M-offer pyramid can be built without ever
/// materializing all offers at once.
class LodBuilder {
 public:
  /// `extent` fixes the covered time span (slice-aligned outward);
  /// contributions outside it are dropped. `regions`, when non-empty, lists
  /// the region ids (ascending) to track earliest-start histograms for.
  explicit LodBuilder(timeutil::TimeInterval extent, std::vector<core::RegionId> regions = {});

  /// Folds `offers` into level 0 (parallel, canonical order preserved).
  void Add(const std::vector<core::FlexOffer>& offers);

  /// Downsamples the higher levels and returns the pyramid. The builder is
  /// exhausted afterwards.
  LodPyramid Finish();

 private:
  LodPyramid pyramid_;
  bool finished_ = false;
};

/// One-shot build over an offer set; extent defaults to the union of the
/// offers' extents.
LodPyramid BuildLodPyramid(const std::vector<core::FlexOffer>& offers,
                           std::vector<core::RegionId> regions = {});

/// The region rows a warehouse pyramid tracks: every region registered in
/// `db`, ascending.
std::vector<core::RegionId> LodRegions(const Database& db);

/// Builds the pyramid over the offers matching `filter` — selection runs
/// through Database::SelectFlexOffers, so every predicate (including the
/// time window's overlap semantics) is honored identically to a raw scan.
/// Region histograms cover every registered region. The extent is the
/// selected offers' union extent.
Result<LodPyramid> BuildLodPyramid(const Database& db, const FlexOfferFilter& filter);

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_LOD_H_
