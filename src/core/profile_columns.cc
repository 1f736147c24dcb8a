#include "core/profile_columns.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "util/parallel.h"
#include "util/simd.h"

namespace flexvis::core {

void ColumnArena::Reset(size_t bytes) {
  used_ = 0;
  if (bytes <= capacity_) return;
  // Over-allocate by one line so the first carve can align its base. Plain
  // array new, NOT make_unique: the arena is carved into fully-written
  // columns, and value-initializing megabytes here would memset them twice.
  block_.reset(new std::byte[bytes + kAlign]);
  capacity_ = bytes + kAlign;
}

void* ColumnArena::AllocateBytes(size_t bytes) {
  size_t base = reinterpret_cast<size_t>(block_.get());
  size_t aligned = (base + used_ + kAlign - 1) & ~(kAlign - 1);
  size_t next_used = aligned - base + bytes;
  assert(next_used <= capacity_);
  used_ = next_used;
  return reinterpret_cast<void*>(aligned);
}

namespace {

/// Column extents contributed by one chunk of offers.
struct ChunkExtents {
  size_t slices = 0;
  size_t units = 0;
  size_t sched_units = 0;
  bool all_unit = true;  // every slice in the chunk has duration 1
};

constexpr size_t kBuildGrain = 1024;

}  // namespace

template <typename OfferAt>
ProfileColumns ProfileColumns::Build(size_t count, const OfferAt& at) {
  ProfileColumns cols;
  cols.num_offers_ = count;

  // Pass 1 (chunk-parallel): slice/schedule counts per chunk — vector sizes
  // only, no per-slice reads — then a serial prefix over the handful of
  // chunk totals. Chunking is by kBuildGrain only, so the resulting layout
  // is identical at every thread count. Unit extents are NOT known yet
  // (they need every duration); pass 2 computes them while it fills, and
  // the unit columns are expanded afterwards from the then-contiguous slice
  // columns instead of a third walk over the scattered AoS vectors.
  const size_t num_chunks = (count + kBuildGrain - 1) / kBuildGrain;
  std::vector<ChunkExtents> chunk(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      ChunkExtents& e = chunk[c];
      const size_t end = std::min(count, (c + 1) * kBuildGrain);
      for (size_t i = c * kBuildGrain; i < end; ++i) {
        const FlexOffer& o = at(i);
        e.slices += o.profile.size();
        if (o.schedule.has_value()) e.sched_units += o.schedule->energy_kwh.size();
      }
    }
  });
  size_t slices = 0, sched_units = 0;
  std::vector<ChunkExtents> chunk_base(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    chunk_base[c] = ChunkExtents{slices, 0, sched_units, true};
    slices += chunk[c].slices;
    sched_units += chunk[c].sched_units;
  }
  cols.num_slices_ = slices;
  cols.num_scheduled_units_ = sched_units;

  const size_t offsets = count + 1;
  size_t bytes = 0;
  bytes += ColumnArena::AlignedSize(slices * sizeof(int32_t));     // slice_duration
  bytes += 2 * ColumnArena::AlignedSize(slices * sizeof(double));  // slice min/max
  bytes += ColumnArena::AlignedSize(offsets * sizeof(size_t));     // slice_offset
  bytes += ColumnArena::AlignedSize(sched_units * sizeof(double));  // scheduled_kwh
  bytes += ColumnArena::AlignedSize(offsets * sizeof(size_t));      // scheduled_offset
  bytes += ColumnArena::AlignedSize(count * sizeof(int64_t));       // schedule_start_min
  bytes += 3 * ColumnArena::AlignedSize(count * sizeof(double));    // totals
  bytes += ColumnArena::AlignedSize(count * sizeof(int32_t));       // duration_slices
  bytes += 6 * ColumnArena::AlignedSize(count * sizeof(int64_t));   // tf, est, deadlines, id
  bytes += 3 * ColumnArena::AlignedSize(count * sizeof(uint8_t));  // state, direction, valid
  cols.arena_.Reset(bytes);

  cols.slice_duration_ = cols.arena_.AllocateArray<int32_t>(slices);
  cols.slice_min_kwh_ = cols.arena_.AllocateArray<double>(slices);
  cols.slice_max_kwh_ = cols.arena_.AllocateArray<double>(slices);
  cols.slice_offset_ = cols.arena_.AllocateArray<size_t>(offsets);
  cols.scheduled_kwh_ = cols.arena_.AllocateArray<double>(sched_units);
  cols.scheduled_offset_ = cols.arena_.AllocateArray<size_t>(offsets);
  cols.schedule_start_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.total_min_kwh_ = cols.arena_.AllocateArray<double>(count);
  cols.total_max_kwh_ = cols.arena_.AllocateArray<double>(count);
  cols.total_scheduled_kwh_ = cols.arena_.AllocateArray<double>(count);
  cols.duration_slices_ = cols.arena_.AllocateArray<int32_t>(count);
  cols.time_flex_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.earliest_start_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.creation_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.acceptance_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.assignment_min_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.offer_id_ = cols.arena_.AllocateArray<int64_t>(count);
  cols.state_ = cols.arena_.AllocateArray<uint8_t>(count);
  cols.direction_ = cols.arena_.AllocateArray<uint8_t>(count);
  cols.valid_ = cols.arena_.AllocateArray<uint8_t>(count);

  // Pass 2 (chunk-parallel): fill. Each chunk starts at its prefix offsets
  // and walks its offers serially, so every array element is written exactly
  // once and the contents never depend on the thread count. The per-offer
  // derived scalars repeat the exact operation order of the FlexOffer
  // helpers (min*dur per RLE slice, schedule energies in sequence) so
  // downstream column sweeps are byte-identical to the AoS loops they
  // replace. The chunk's unit extent falls out of the same duration reads.
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      size_t s_at = chunk_base[c].slices;
      size_t e_at = chunk_base[c].sched_units;
      size_t chunk_units = 0;
      bool chunk_all_unit = true;
      const size_t end = std::min(count, (c + 1) * kBuildGrain);
      for (size_t i = c * kBuildGrain; i < end; ++i) {
        const FlexOffer& o = at(i);
        cols.slice_offset_[i] = s_at;
        cols.scheduled_offset_[i] = e_at;

        // The validity verdict accumulates branch-free alongside the fill:
        // every operand Validate() inspects passes through this loop anyway,
        // and the checks below are Validate()'s own (finite energies, the
        // 64-bit profile length against kMaxProfileUnitSlices, then the
        // comparison forms), so every offer passes or fails identically.
        double total_min = 0.0, total_max = 0.0;
        int64_t duration = 0;
        unsigned bad = o.profile.empty() ? 1u : 0u;
        for (const ProfileSlice& s : o.profile) {
          cols.slice_duration_[s_at] = s.duration_slices;
          cols.slice_min_kwh_[s_at] = s.min_energy_kwh;
          cols.slice_max_kwh_[s_at] = s.max_energy_kwh;
          ++s_at;
          total_min += s.min_energy_kwh * s.duration_slices;
          total_max += s.max_energy_kwh * s.duration_slices;
          duration += s.duration_slices;
          bad |= static_cast<unsigned>(s.duration_slices < 1) |
                 static_cast<unsigned>(!std::isfinite(s.min_energy_kwh)) |
                 static_cast<unsigned>(!std::isfinite(s.max_energy_kwh)) |
                 static_cast<unsigned>(s.min_energy_kwh < 0.0) |
                 static_cast<unsigned>(s.min_energy_kwh > s.max_energy_kwh);
          if (s.duration_slices != 1) chunk_all_unit = false;
          if (s.duration_slices > 0) chunk_units += static_cast<size_t>(s.duration_slices);
        }
        cols.total_min_kwh_[i] = total_min;
        cols.total_max_kwh_[i] = total_max;
        cols.duration_slices_[i] = static_cast<int32_t>(duration);
        bad |= static_cast<unsigned>(duration > kMaxProfileUnitSlices);

        double total_sched = 0.0;
        if (o.schedule.has_value()) {
          cols.schedule_start_min_[i] = o.schedule->start.minutes();
          for (double e : o.schedule->energy_kwh) {
            cols.scheduled_kwh_[e_at++] = e;
            total_sched += e;
          }
        } else {
          cols.schedule_start_min_[i] = kNoScheduleStart;
        }
        cols.total_scheduled_kwh_[i] = total_sched;

        cols.time_flex_min_[i] = o.latest_start - o.earliest_start;
        cols.earliest_start_min_[i] = o.earliest_start.minutes();
        cols.creation_min_[i] = o.creation_time.minutes();
        cols.acceptance_min_[i] = o.acceptance_deadline.minutes();
        cols.assignment_min_[i] = o.assignment_deadline.minutes();
        cols.offer_id_[i] = static_cast<int64_t>(o.id);
        cols.state_[i] = static_cast<uint8_t>(o.state);
        cols.direction_[i] = static_cast<uint8_t>(o.direction);

        constexpr int64_t kStep = timeutil::kMinutesPerSlice;
        const int64_t est_min = o.earliest_start.minutes();
        const int64_t latest_min = o.latest_start.minutes();
        bad |= static_cast<unsigned>(latest_min < est_min);
        bad |= static_cast<unsigned>(est_min % kStep != 0) |
               static_cast<unsigned>(latest_min % kStep != 0);
        bad |= static_cast<unsigned>(o.acceptance_deadline < o.creation_time) |
               static_cast<unsigned>(o.assignment_deadline < o.acceptance_deadline) |
               static_cast<unsigned>(latest_min < o.assignment_deadline.minutes());
        if (bad == 0 && o.schedule.has_value()) {
          const std::vector<double>& energy = o.schedule->energy_kwh;
          // The size check gates the energy walk: on a mismatch the walk
          // would run past the offer's scheduled range.
          if (energy.size() != static_cast<size_t>(duration)) {
            bad = 1;
          } else {
            const int64_t start_min = o.schedule->start.minutes();
            bad |= static_cast<unsigned>(start_min < est_min) |
                   static_cast<unsigned>(latest_min < start_min) |
                   static_cast<unsigned>(start_min % kStep != 0);
            constexpr double kEnergyTolerance = 1e-6;  // Validate()'s tolerance
            size_t unit = 0;
            for (const ProfileSlice& s : o.profile) {
              const double lo = s.min_energy_kwh - kEnergyTolerance;
              const double hi = s.max_energy_kwh + kEnergyTolerance;
              for (int32_t k = 0; k < s.duration_slices; ++k, ++unit) {
                bad |= static_cast<unsigned>(!std::isfinite(energy[unit])) |
                       static_cast<unsigned>(energy[unit] < lo) |
                       static_cast<unsigned>(energy[unit] > hi);
              }
            }
          }
        }
        cols.valid_[i] = bad == 0 ? 1 : 0;
      }
      chunk[c].units = chunk_units;
      chunk[c].all_unit = chunk_all_unit;
    }
  });
  cols.slice_offset_[count] = slices;
  cols.scheduled_offset_[count] = sched_units;

  size_t units = 0;
  bool all_unit = true;
  std::vector<size_t> unit_base(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    unit_base[c] = units;
    units += chunk[c].units;
    all_unit = all_unit && chunk[c].all_unit;
  }
  cols.num_units_ = units;

  if (all_unit) {
    // Every slice already has duration 1 (the common unit-resolution case):
    // the unit columns are bit-identical to the slice columns, so alias them
    // instead of materializing a copy.
    cols.unit_min_kwh_ = cols.slice_min_kwh_;
    cols.unit_max_kwh_ = cols.slice_max_kwh_;
    cols.unit_offset_ = cols.slice_offset_;
    return cols;
  }

  // Pass 3 (chunk-parallel, ragged profiles only): expand the unit columns
  // from the now-contiguous slice columns — no AoS reads at all.
  const size_t unit_bytes = 2 * ColumnArena::AlignedSize(units * sizeof(double)) +
                            ColumnArena::AlignedSize(offsets * sizeof(size_t));
  cols.unit_arena_.Reset(unit_bytes);
  cols.unit_min_kwh_ = cols.unit_arena_.AllocateArray<double>(units);
  cols.unit_max_kwh_ = cols.unit_arena_.AllocateArray<double>(units);
  cols.unit_offset_ = cols.unit_arena_.AllocateArray<size_t>(offsets);
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      size_t u_at = unit_base[c];
      const size_t end = std::min(count, (c + 1) * kBuildGrain);
      for (size_t i = c * kBuildGrain; i < end; ++i) {
        cols.unit_offset_[i] = u_at;
        const size_t s_end = cols.slice_offset_[i + 1];
        for (size_t s = cols.slice_offset_[i]; s < s_end; ++s) {
          const double lo = cols.slice_min_kwh_[s];
          const double hi = cols.slice_max_kwh_[s];
          for (int32_t u = 0; u < cols.slice_duration_[s]; ++u) {
            cols.unit_min_kwh_[u_at] = lo;
            cols.unit_max_kwh_[u_at] = hi;
            ++u_at;
          }
        }
      }
    }
  });
  cols.unit_offset_[count] = units;
  return cols;
}

ProfileColumns ProfileColumns::FromOffers(const std::vector<FlexOffer>& offers) {
  return Build(offers.size(), [&](size_t i) -> const FlexOffer& { return offers[i]; });
}

ProfileColumns ProfileColumns::FromPointers(const FlexOffer* const* offers, size_t count) {
  return Build(count, [&](size_t i) -> const FlexOffer& { return *offers[i]; });
}

std::vector<ProfileSlice> ProfileColumns::ProfileOf(size_t i) const {
  std::vector<ProfileSlice> out;
  const size_t begin = slice_offset_[i], end = slice_offset_[i + 1];
  out.reserve(end - begin);
  for (size_t s = begin; s < end; ++s) {
    out.push_back(ProfileSlice{slice_duration_[s], slice_min_kwh_[s], slice_max_kwh_[s]});
  }
  return out;
}

std::optional<Schedule> ProfileColumns::ScheduleOf(size_t i) const {
  if (schedule_start_min_[i] == kNoScheduleStart) return std::nullopt;
  Schedule sched;
  sched.start = timeutil::TimePoint::FromMinutes(schedule_start_min_[i]);
  const size_t begin = scheduled_offset_[i], end = scheduled_offset_[i + 1];
  sched.energy_kwh.assign(scheduled_kwh_ + begin, scheduled_kwh_ + end);
  return sched;
}

void ProfileColumns::RestoreInto(FlexOffer& offer, size_t i) const {
  offer.profile = ProfileOf(i);
  offer.schedule = ScheduleOf(i);
}

void ValidMask(const ProfileColumns& cols, uint8_t* valid) {
  // Verdicts were accumulated while the columns were built (every operand the
  // checks need passes through the fill loops anyway), so this is a copy.
  if (cols.num_offers() == 0) return;
  std::memcpy(valid, cols.valid(), cols.num_offers());
}

}  // namespace flexvis::core
