#include "serve/registry.h"

#include <utility>

#include "util/strings.h"

namespace flexvis::serve {

SnapshotRef::SnapshotRef(SnapshotRef&& other) noexcept
    : registry_(other.registry_), snapshot_(std::move(other.snapshot_)) {
  other.registry_ = nullptr;
  other.snapshot_.reset();
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    snapshot_ = std::move(other.snapshot_);
    other.registry_ = nullptr;
    other.snapshot_.reset();
  }
  return *this;
}

SnapshotRef::~SnapshotRef() { Release(); }

void SnapshotRef::Release() {
  if (registry_ != nullptr && snapshot_ != nullptr) {
    registry_->Unpin(snapshot_->generation);
  }
  registry_ = nullptr;
  snapshot_.reset();
}

int64_t GenerationRegistry::Publish(std::shared_ptr<const dw::Database> db) {
  // Build the cube outside the lock: readers keep querying the previous
  // generation while this one materializes.
  auto snapshot = std::make_shared<WarehouseSnapshot>();
  snapshot->db = std::move(db);
  auto cube = std::make_unique<olap::Cube>(snapshot->db.get());
  // Standard dimensions only fail on duplicate names, impossible on a fresh
  // cube; ignore the status so Publish stays infallible for callers.
  (void)cube->AddStandardDimensions();
  snapshot->cube = std::move(cube);
  // The LOD pyramid also materializes outside the lock: a copy of the one
  // attached to the database (a warehouse opened from disk carries the one
  // its save built), else a build from the warehouse columns. The build
  // refuses offers whose extent passes dw::kMaxLodSlices; Publish stays
  // infallible by publishing an empty pyramid then.
  if (snapshot->db->lod() != nullptr) {
    snapshot->lod = *snapshot->db->lod();
  } else {
    Result<dw::LodPyramid> lod = dw::BuildLodPyramid(*snapshot->db, dw::FlexOfferFilter{});
    if (lod.ok()) snapshot->lod = *std::move(lod);
  }

  std::vector<Entry> retired;
  int64_t generation;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    generation = next_generation_++;
    snapshot->generation = generation;
    entries_[generation].snapshot = std::move(snapshot);
    current_ = generation;
    SweepLocked(retired);
  }
  // `retired` destructs here, without holding the registry lock: a Database
  // is expensive to destroy.
  return generation;
}

SnapshotRef GenerationRegistry::PinCurrent() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(current_);
  if (it == entries_.end()) return SnapshotRef();
  ++it->second.pins;
  return SnapshotRef(this, it->second.snapshot);
}

Result<SnapshotRef> GenerationRegistry::PinGeneration(int64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(generation);
  if (it == entries_.end()) {
    return NotFoundError(StrFormat("generation %lld is not live (current %lld)",
                                   static_cast<long long>(generation),
                                   static_cast<long long>(current_)));
  }
  ++it->second.pins;
  return SnapshotRef(this, it->second.snapshot);
}

void GenerationRegistry::Unpin(int64_t generation) {
  std::vector<Entry> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(generation);
    if (it == entries_.end()) return;
    --it->second.pins;
    SweepLocked(retired);
  }
}

void GenerationRegistry::SweepLocked(std::vector<Entry>& retired) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first < current_ && it->second.pins == 0) {
      retired.push_back(std::move(it->second));
      it = entries_.erase(it);
      ++retired_;
    } else {
      ++it;
    }
  }
}

int64_t GenerationRegistry::current_generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

size_t GenerationRegistry::live_generations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

int64_t GenerationRegistry::retired_generations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retired_;
}

int64_t GenerationRegistry::active_pins() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [gen, entry] : entries_) total += entry.pins;
  return total;
}

std::vector<int64_t> GenerationRegistry::LiveGenerations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t> gens;
  gens.reserve(entries_.size());
  for (const auto& [gen, entry] : entries_) gens.push_back(gen);
  return gens;
}

}  // namespace flexvis::serve
