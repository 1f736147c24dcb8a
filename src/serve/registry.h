#ifndef FLEXVIS_SERVE_REGISTRY_H_
#define FLEXVIS_SERVE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "dw/database.h"
#include "dw/lod.h"
#include "olap/cube.h"
#include "util/status.h"

namespace flexvis::serve {

/// One published warehouse generation: an immutable in-memory snapshot of
/// the DW plus the OLAP cube and LOD pyramid built over it. Readers hold it
/// through a shared_ptr, so the snapshot outlives registry retirement for as
/// long as any session still references it; the cube shares the database's
/// lifetime (it holds a raw pointer into it) by living in the same object.
/// The pyramid is immutable and consistent with `db` by construction, so
/// tile caches keyed on `generation` can render from it without revalidating
/// against the offer set.
struct WarehouseSnapshot {
  int64_t generation = -1;
  std::shared_ptr<const dw::Database> db;
  std::unique_ptr<const olap::Cube> cube;
  dw::LodPyramid lod;
};

class GenerationRegistry;

/// RAII pin on one published generation: readers query through the pinned
/// snapshot while the ingest loop publishes newer ones. Releasing the last
/// pin on a superseded generation retires it. Movable, not copyable.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&& other) noexcept;
  SnapshotRef& operator=(SnapshotRef&& other) noexcept;
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;
  ~SnapshotRef();

  /// Unpins early (idempotent). The snapshot pointer stays valid for as
  /// long as the caller keeps a copy of `snapshot()`, but the generation
  /// may be garbage-collected once every pin is gone.
  void Release();

  bool empty() const { return snapshot_ == nullptr; }
  int64_t generation() const { return snapshot_ ? snapshot_->generation : -1; }
  const WarehouseSnapshot* operator->() const { return snapshot_.get(); }
  const std::shared_ptr<const WarehouseSnapshot>& snapshot() const { return snapshot_; }

 private:
  friend class GenerationRegistry;
  SnapshotRef(GenerationRegistry* registry, std::shared_ptr<const WarehouseSnapshot> snapshot)
      : registry_(registry), snapshot_(std::move(snapshot)) {}

  GenerationRegistry* registry_ = nullptr;
  std::shared_ptr<const WarehouseSnapshot> snapshot_;
};

/// The MVCC heart of the serving layer: the ingest loop publishes immutable
/// warehouse generations; N concurrent readers pin the current one with
/// snapshot isolation (a reader never sees a half-applied tick) and zero
/// locks on the ingest path itself — Publish takes the registry mutex for a
/// map insert, never for warehouse construction, and readers only hold it
/// for a refcount bump. A superseded generation is retired when its last
/// reader unpins.
class GenerationRegistry {
 public:
  GenerationRegistry() = default;
  GenerationRegistry(const GenerationRegistry&) = delete;
  GenerationRegistry& operator=(const GenerationRegistry&) = delete;

  /// Publishes `db` as the next generation and returns its number
  /// (monotonically increasing from 0). Before taking the lock it builds the
  /// generation's OLAP cube (standard dimensions) and its LOD pyramid, or
  /// copies the pyramid `db` carries (Database::lod). Superseded generations
  /// with no readers retire immediately.
  int64_t Publish(std::shared_ptr<const dw::Database> db);

  /// Pins the newest published generation. Empty ref if nothing published.
  SnapshotRef PinCurrent();

  /// Pins a specific still-live generation (kNotFound once retired).
  Result<SnapshotRef> PinGeneration(int64_t generation);

  /// Newest published generation number, -1 before the first Publish.
  int64_t current_generation() const;
  /// Generations currently live (current + any pinned older ones).
  size_t live_generations() const;
  /// Superseded generations fully retired so far.
  int64_t retired_generations() const;
  /// Active reader pins across all generations.
  int64_t active_pins() const;
  /// Live generation numbers, ascending (diagnostics / tests).
  std::vector<int64_t> LiveGenerations() const;

 private:
  friend class SnapshotRef;

  struct Entry {
    std::shared_ptr<const WarehouseSnapshot> snapshot;
    int64_t pins = 0;
  };

  void Unpin(int64_t generation);
  /// Retires every superseded zero-pin entry. Caller holds mutex_; retired
  /// entries are moved into `retired` so that destroying their snapshots
  /// (a Database is expensive to destroy) runs outside the lock.
  void SweepLocked(std::vector<Entry>& retired);

  mutable std::mutex mutex_;
  std::map<int64_t, Entry> entries_;
  int64_t current_ = -1;
  int64_t next_generation_ = 0;
  int64_t retired_ = 0;
};

}  // namespace flexvis::serve

#endif  // FLEXVIS_SERVE_REGISTRY_H_
