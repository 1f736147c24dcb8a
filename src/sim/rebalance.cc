#include "sim/rebalance.h"

#include <algorithm>
#include <initializer_list>

#include "sim/alerts.h"
#include "sim/checkpoint.h"
#include "sim/online.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace {

Status FirstError(std::initializer_list<const Status*> statuses, const char* what) {
  for (const Status* status : statuses) {
    if (!status->ok()) {
      return DataLossError(StrFormat("%s is incomplete: %s", what, status->message().c_str()));
    }
  }
  return OkStatus();
}

}  // namespace

JsonValue EncodeRebalanceParams(const RebalanceParams& params) {
  JsonValue out = JsonValue::Object();
  out.Set("window_ticks", JsonValue::Int(params.window_ticks));
  out.Set("queue_depth_threshold", JsonValue::Int(params.queue_depth_threshold));
  out.Set("cooldown_ticks", JsonValue::Int(params.cooldown_ticks));
  out.Set("max_moves", JsonValue::Int(params.max_moves));
  out.Set("allow_resize", JsonValue::Bool(params.allow_resize));
  out.Set("min_shards", JsonValue::Int(params.min_shards));
  out.Set("max_shards", JsonValue::Int(params.max_shards));
  out.Set("merge_window_ticks", JsonValue::Int(params.merge_window_ticks));
  return out;
}

Result<RebalanceParams> DecodeRebalanceParams(const JsonValue& value) {
  if (!value.is_object()) return DataLossError("rebalance params are not an object");
  Result<int64_t> window = value.GetInt("window_ticks");
  Result<int64_t> depth = value.GetInt("queue_depth_threshold");
  Result<int64_t> cooldown = value.GetInt("cooldown_ticks");
  Result<int64_t> max_moves = value.GetInt("max_moves");
  Result<bool> allow_resize = value.GetBool("allow_resize");
  Result<int64_t> min_shards = value.GetInt("min_shards");
  Result<int64_t> max_shards = value.GetInt("max_shards");
  Result<int64_t> merge_window = value.GetInt("merge_window_ticks");
  FLEXVIS_RETURN_IF_ERROR(FirstError(
      {&window.status(), &depth.status(), &cooldown.status(), &max_moves.status(),
       &allow_resize.status(), &min_shards.status(), &max_shards.status(),
       &merge_window.status()},
      "rebalance params"));
  RebalanceParams params;
  const char* what = "rebalance params";
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*window, what, "window_ticks", &params.window_ticks));
  FLEXVIS_RETURN_IF_ERROR(
      NarrowToInt(*depth, what, "queue_depth_threshold", &params.queue_depth_threshold));
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*cooldown, what, "cooldown_ticks", &params.cooldown_ticks));
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*max_moves, what, "max_moves", &params.max_moves));
  params.allow_resize = *allow_resize;
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*min_shards, what, "min_shards", &params.min_shards));
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*max_shards, what, "max_shards", &params.max_shards));
  FLEXVIS_RETURN_IF_ERROR(
      NarrowToInt(*merge_window, what, "merge_window_ticks", &params.merge_window_ticks));
  return params;
}

std::string_view RebalanceActionName(RebalancePlan::Action action) {
  switch (action) {
    case RebalancePlan::Action::kMove:
      return "move";
    case RebalancePlan::Action::kSplit:
      return "split";
    case RebalancePlan::Action::kMerge:
      return "merge";
  }
  return "move";
}

Result<RebalancePlan::Action> ParseRebalanceAction(std::string_view name) {
  if (name == "move") return RebalancePlan::Action::kMove;
  if (name == "split") return RebalancePlan::Action::kSplit;
  if (name == "merge") return RebalancePlan::Action::kMerge;
  return InvalidArgumentError(StrFormat("unknown rebalance action '%.*s'",
                                        static_cast<int>(name.size()), name.data()));
}

JsonValue EncodeRebalancePlan(const RebalancePlan& plan) {
  JsonValue out = JsonValue::Object();
  out.Set("kind", JsonValue::Str("plan"));
  out.Set("id", JsonValue::Int(plan.id));
  out.Set("tick", JsonValue::Int(plan.tick));
  out.Set("action", JsonValue::Str(std::string(RebalanceActionName(plan.action))));
  out.Set("new_num_shards", JsonValue::Int(plan.new_num_shards));
  JsonValue moves = JsonValue::Array();
  for (const RebalanceMove& move : plan.moves) {
    JsonValue entry = JsonValue::Object();
    entry.Set("prosumer", JsonValue::Int(move.prosumer));
    entry.Set("from", JsonValue::Int(move.from));
    entry.Set("to", JsonValue::Int(move.to));
    moves.Append(std::move(entry));
  }
  out.Set("moves", std::move(moves));
  return out;
}

Result<RebalancePlan> DecodeRebalancePlan(const JsonValue& value) {
  if (!value.is_object()) return DataLossError("rebalance plan is not an object");
  Result<int64_t> id = value.GetInt("id");
  Result<int64_t> tick = value.GetInt("tick");
  Result<std::string> action_name = value.GetString("action");
  Result<int64_t> new_num_shards = value.GetInt("new_num_shards");
  FLEXVIS_RETURN_IF_ERROR(FirstError({&id.status(), &tick.status(), &action_name.status(),
                                      &new_num_shards.status()},
                                     "rebalance plan"));
  Result<RebalancePlan::Action> action = ParseRebalanceAction(*action_name);
  if (!action.ok()) return action.status();
  RebalancePlan plan;
  plan.id = *id;
  plan.tick = *tick;
  plan.action = *action;
  FLEXVIS_RETURN_IF_ERROR(
      NarrowToInt(*new_num_shards, "rebalance plan", "new_num_shards", &plan.new_num_shards));
  const JsonValue& moves = value.Get("moves");
  if (!moves.is_array()) return DataLossError("rebalance plan 'moves' is not an array");
  for (size_t i = 0; i < moves.size(); ++i) {
    const JsonValue& entry = moves[i];
    if (!entry.is_object()) return DataLossError("rebalance move is not an object");
    Result<int64_t> prosumer = entry.GetInt("prosumer");
    Result<int64_t> from = entry.GetInt("from");
    Result<int64_t> to = entry.GetInt("to");
    FLEXVIS_RETURN_IF_ERROR(
        FirstError({&prosumer.status(), &from.status(), &to.status()}, "rebalance move"));
    RebalanceMove move;
    move.prosumer = *prosumer;
    FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*from, "rebalance move", "from", &move.from));
    FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*to, "rebalance move", "to", &move.to));
    plan.moves.push_back(move);
  }
  return plan;
}

std::vector<core::ProsumerId> PickMoveSet(std::vector<ProsumerLoad> candidates, int max_moves,
                                          int64_t target_load) {
  std::sort(candidates.begin(), candidates.end(),
            [](const ProsumerLoad& a, const ProsumerLoad& b) {
              if (a.pending_offers != b.pending_offers) {
                return a.pending_offers > b.pending_offers;
              }
              return a.prosumer < b.prosumer;
            });
  std::vector<core::ProsumerId> picked;
  int64_t moved = 0;
  for (const ProsumerLoad& candidate : candidates) {
    if (static_cast<int>(picked.size()) >= max_moves || moved >= target_load) break;
    // Sorted descending: once loads hit zero nothing further can help.
    if (candidate.pending_offers <= 0) break;
    picked.push_back(candidate.prosumer);
    moved += candidate.pending_offers;
  }
  return picked;
}

RebalanceController::RebalanceController(RebalanceParams params, int num_shards,
                                         timeutil::TimeInterval window)
    : params_(params), num_shards_(num_shards), window_(window) {
  streak_.assign(static_cast<size_t>(num_shards_), 0);
  prev_shed_.assign(static_cast<size_t>(num_shards_), 0);
}

void RebalanceController::ResetShards(int num_shards, const std::vector<int64_t>& prev_shed) {
  num_shards_ = num_shards;
  streak_.assign(static_cast<size_t>(num_shards_), 0);
  if (prev_shed.size() == static_cast<size_t>(num_shards_)) {
    prev_shed_ = prev_shed;
  } else {
    prev_shed_.assign(static_cast<size_t>(num_shards_), 0);
  }
  idle_streak_ = 0;
}

std::optional<RebalanceDecision> RebalanceController::Observe(
    int64_t tick, const std::vector<ShardLoadSample>& samples) {
  if (static_cast<int>(samples.size()) != num_shards_) {
    ResetShards(static_cast<int>(samples.size()));
  }
  last_observed_tick_ = tick;

  // One synthetic per-tick overload report per shard: shed counters are
  // differenced so a shard that shed once long ago does not alert forever,
  // and the current queue depth stands in for the watermark (the cumulative
  // watermark never recedes, the depth does).
  std::vector<OnlineReport> reports(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    reports[s].shed_offers = static_cast<int>(samples[s].shed_offers - prev_shed_[s]);
    reports[s].queue_high_watermark = samples[s].queue_depth;
  }
  const std::vector<Alert> alerts = ScanOverload(reports, window_, params_.queue_depth_threshold);
  std::vector<bool> overloaded(static_cast<size_t>(num_shards_), false);
  for (const Alert& alert : alerts) {
    if (alert.shard >= 0 && alert.shard < num_shards_) overloaded[alert.shard] = true;
  }

  bool all_idle = true;
  for (int s = 0; s < num_shards_; ++s) {
    streak_[s] = overloaded[s] ? streak_[s] + 1 : 0;
    if (reports[s].shed_offers != 0 || samples[s].queue_depth != 0 || samples[s].backlog != 0) {
      all_idle = false;
    }
    prev_shed_[s] = samples[s].shed_offers;
  }
  idle_streak_ = all_idle ? idle_streak_ + 1 : 0;

  if (cooldown_ > 0) {
    --cooldown_;
    return std::nullopt;
  }

  int sustained = 0;
  int hot = -1;
  for (int s = 0; s < num_shards_; ++s) {
    if (streak_[s] < params_.window_ticks) continue;
    ++sustained;
    if (hot < 0 || streak_[s] > streak_[hot]) hot = s;
  }
  if (sustained > 0) {
    RebalanceDecision decision;
    decision.tick = tick;
    const int doubled = std::min(params_.max_shards, num_shards_ * 2);
    if (params_.allow_resize && sustained == num_shards_ && doubled > num_shards_) {
      decision.action = RebalancePlan::Action::kSplit;
      decision.new_num_shards = doubled;
    } else {
      if (num_shards_ < 2) return std::nullopt;  // nowhere to move, cannot split
      decision.action = RebalancePlan::Action::kMove;
      decision.hot_shard = hot;
      int cold = -1;
      auto load_of = [&](int s) { return samples[s].backlog + samples[s].queue_depth; };
      for (int s = 0; s < num_shards_; ++s) {
        if (s == hot) continue;
        if (cold < 0 || load_of(s) < load_of(cold) ||
            (load_of(s) == load_of(cold) && streak_[s] < streak_[cold])) {
          cold = s;
        }
      }
      decision.cold_shard = cold;
    }
    decision.plan_id = next_plan_id_++;
    cooldown_ = params_.cooldown_ticks;
    std::fill(streak_.begin(), streak_.end(), 0);
    idle_streak_ = 0;
    return decision;
  }

  if (params_.merge_window_ticks > 0 && params_.allow_resize &&
      idle_streak_ >= params_.merge_window_ticks && num_shards_ > params_.min_shards) {
    RebalanceDecision decision;
    decision.tick = tick;
    decision.action = RebalancePlan::Action::kMerge;
    decision.new_num_shards = std::max(params_.min_shards, num_shards_ / 2);
    decision.plan_id = next_plan_id_++;
    cooldown_ = params_.cooldown_ticks;
    std::fill(streak_.begin(), streak_.end(), 0);
    idle_streak_ = 0;
    return decision;
  }
  return std::nullopt;
}

JsonValue RebalanceController::EncodeState() const {
  JsonValue out = JsonValue::Object();
  out.Set("next_plan_id", JsonValue::Int(next_plan_id_));
  out.Set("cooldown", JsonValue::Int(cooldown_));
  out.Set("idle_streak", JsonValue::Int(idle_streak_));
  out.Set("last_observed_tick", JsonValue::Int(last_observed_tick_));
  JsonValue streaks = JsonValue::Array();
  for (int s : streak_) streaks.Append(JsonValue::Int(s));
  out.Set("streak", std::move(streaks));
  JsonValue sheds = JsonValue::Array();
  for (int64_t s : prev_shed_) sheds.Append(JsonValue::Int(s));
  out.Set("prev_shed", std::move(sheds));
  return out;
}

Status RebalanceController::DecodeState(const JsonValue& state) {
  if (!state.is_object()) return DataLossError("controller state is not an object");
  Result<int64_t> next_plan_id = state.GetInt("next_plan_id");
  Result<int64_t> cooldown = state.GetInt("cooldown");
  Result<int64_t> idle_streak = state.GetInt("idle_streak");
  Result<int64_t> last_observed = state.GetInt("last_observed_tick");
  FLEXVIS_RETURN_IF_ERROR(FirstError({&next_plan_id.status(), &cooldown.status(),
                                      &idle_streak.status(), &last_observed.status()},
                                     "controller state"));
  // Decoded into locals first: a refused state leaves the controller as it was.
  const char* what = "controller state";
  int cooldown_value = 0;
  int idle_streak_value = 0;
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*cooldown, what, "cooldown", &cooldown_value));
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*idle_streak, what, "idle_streak", &idle_streak_value));
  const JsonValue& streaks = state.Get("streak");
  const JsonValue& sheds = state.Get("prev_shed");
  if (!streaks.is_array() || !sheds.is_array() ||
      streaks.size() != static_cast<size_t>(num_shards_) ||
      sheds.size() != static_cast<size_t>(num_shards_)) {
    return DataLossError(StrFormat("controller state does not cover %d shard(s)", num_shards_));
  }
  std::vector<int> streak(static_cast<size_t>(num_shards_));
  std::vector<int64_t> prev_shed(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    if (!streaks[s].is_int() || !sheds[s].is_int()) {
      return DataLossError("controller state 'streak'/'prev_shed' holds a non-integer");
    }
    FLEXVIS_RETURN_IF_ERROR(
        NarrowToInt(streaks[s].AsInt(), what, "streak", &streak[static_cast<size_t>(s)]));
    prev_shed[static_cast<size_t>(s)] = sheds[s].AsInt();
  }
  next_plan_id_ = *next_plan_id;
  cooldown_ = cooldown_value;
  idle_streak_ = idle_streak_value;
  last_observed_tick_ = *last_observed;
  streak_ = std::move(streak);
  prev_shed_ = std::move(prev_shed);
  return OkStatus();
}

}  // namespace flexvis::sim
