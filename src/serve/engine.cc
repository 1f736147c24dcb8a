#include "serve/engine.h"

#include <utility>

#include "core/flex_offer.h"
#include "core/messages.h"
#include "olap/mdx.h"
#include "util/strings.h"

namespace flexvis::serve {

ServeSession::ServeSession(ServeSession&& other) noexcept
    : engine_(other.engine_), pin_(std::move(other.pin_)),
      interactive_(std::move(other.interactive_)) {
  other.engine_ = nullptr;
}

ServeSession& ServeSession::operator=(ServeSession&& other) noexcept {
  if (this != &other) {
    Close();
    engine_ = other.engine_;
    pin_ = std::move(other.pin_);
    interactive_ = std::move(other.interactive_);
    other.engine_ = nullptr;
  }
  return *this;
}

Result<std::string> ServeSession::Query(const ServeRequest& request) {
  if (!open()) return FailedPreconditionError("session is closed");
  const WarehouseSnapshot& snapshot = *pin_.snapshot();
  Result<std::string> key = ServeEngine::CacheKey(request, snapshot);
  if (!key.ok()) return key.status();
  const int64_t generation = pin_.generation();
  if (std::optional<std::string> cached = engine_->cache_.Lookup(generation, *key)) {
    return *std::move(cached);
  }
  Result<std::string> result = ServeEngine::Execute(request, snapshot);
  if (!result.ok()) return result.status();
  engine_->cache_.Insert(generation, *key, *result);
  return result;
}

Result<viz::Session*> ServeSession::InteractiveSession() {
  if (!open()) return FailedPreconditionError("session is closed");
  if (interactive_ == nullptr) {
    // Alias the snapshot: the viz::Session's shared_ptr keeps the whole
    // WarehouseSnapshot (db + cube) alive, so open tabs survive Close().
    std::shared_ptr<const dw::Database> db(pin_.snapshot(), pin_.snapshot()->db.get());
    interactive_ = std::make_unique<viz::Session>(std::move(db));
  }
  return interactive_.get();
}

void ServeSession::Close() {
  if (engine_ == nullptr) return;
  interactive_.reset();
  pin_.Release();
  engine_->admission_.Release();
  engine_ = nullptr;
}

ServeEngine::ServeEngine(Options options)
    : options_(std::move(options)), cache_(options_.cache_entries, options_.cache_bytes),
      admission_(options_.max_active_sessions, options_.session_queue_capacity,
                 options_.shed_policy, options_.journal) {}

int64_t ServeEngine::Publish(std::shared_ptr<const dw::Database> db) {
  const int64_t generation = registry_.Publish(std::move(db));
  const int64_t invalidated = cache_.InvalidateBefore(generation);
  if (options_.journal) {
    options_.journal(StrFormat("serve.publish generation=%lld cache_invalidated=%lld",
                               static_cast<long long>(generation),
                               static_cast<long long>(invalidated)));
  }
  return generation;
}

Result<ServeSession> ServeEngine::OpenSession(double value) {
  FLEXVIS_RETURN_IF_ERROR(admission_.Admit(value));
  SnapshotRef pin = registry_.PinCurrent();
  if (pin.empty()) {
    admission_.Release();
    return FailedPreconditionError("no warehouse generation published yet");
  }
  return ServeSession(this, std::move(pin));
}

ServeStats ServeEngine::stats() const {
  ServeStats stats;
  stats.cache = cache_.stats();
  stats.admission = admission_.stats();
  stats.current_generation = registry_.current_generation();
  stats.live_generations = registry_.live_generations();
  stats.retired_generations = registry_.retired_generations();
  stats.active_pins = registry_.active_pins();
  return stats;
}

Result<std::string> ServeEngine::CacheKey(const ServeRequest& request,
                                          const WarehouseSnapshot& snapshot) {
  switch (request.kind) {
    case RequestKind::kHover:
      return StrFormat("hover:%lld", static_cast<long long>(request.offer));
    case RequestKind::kSelect:
      return "select:" + dw::CanonicalFilterKey(request.filter);
    case RequestKind::kPivot:
    case RequestKind::kRollup: {
      Result<std::string> key = olap::NormalizeMdxKey(request.mdx, *snapshot.cube);
      if (!key.ok()) return key.status();
      return (request.kind == RequestKind::kPivot ? "pivot:" : "rollup:") + *std::move(key);
    }
  }
  return InvalidArgumentError("unknown request kind");
}

Result<std::string> ServeEngine::Execute(const ServeRequest& request,
                                         const WarehouseSnapshot& snapshot) {
  switch (request.kind) {
    case RequestKind::kHover: {
      Result<core::FlexOffer> offer = snapshot.db->GetFlexOffer(request.offer);
      if (!offer.ok()) return offer.status();
      return core::EncodeFlexOffer(*offer);
    }
    case RequestKind::kSelect: {
      Result<std::vector<core::FlexOffer>> offers =
          snapshot.db->SelectFlexOffers(request.filter);
      if (!offers.ok()) return offers.status();
      std::string out;
      for (const core::FlexOffer& offer : *offers) {
        out += core::Describe(offer);
        out += '\n';
      }
      return out;
    }
    case RequestKind::kPivot:
    case RequestKind::kRollup: {
      Result<olap::CubeQuery> query = olap::ParseMdx(request.mdx, *snapshot.cube);
      if (!query.ok()) return query.status();
      Result<olap::PivotResult> pivot = snapshot.cube->Evaluate(*query);
      if (!pivot.ok()) return pivot.status();
      if (request.kind == RequestKind::kPivot) return pivot->ToText();
      std::string out;
      for (size_t r = 0; r < pivot->rows.size(); ++r) {
        out += StrFormat("%s = %.6f\n", pivot->rows[r].label.c_str(), pivot->RowTotal(r));
      }
      out += StrFormat("TOTAL = %.6f\n", pivot->GrandTotal());
      return out;
    }
  }
  return InvalidArgumentError("unknown request kind");
}

}  // namespace flexvis::serve
