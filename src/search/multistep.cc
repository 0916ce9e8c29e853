#include "src/search/multistep.h"

#include <algorithm>
#include <chrono>

#include "src/common/metrics.h"

namespace dess {

MultiStepPlan MultiStepPlan::Standard(int first_retrieve, int final_keep) {
  MultiStepPlan plan;
  plan.stages.push_back({FeatureKind::kMomentInvariants, "", first_retrieve});
  plan.stages.push_back({FeatureKind::kGeometricParams, "", final_keep});
  return plan;
}

namespace {

/// The registry ordinal a stage addresses: `space` (id) when set, the
/// legacy `kind` enum otherwise. Unknown ids fail InvalidArgument.
Result<int> StageOrdinal(const SearchEngine& engine,
                         const MultiStepStage& stage) {
  if (!stage.space.empty()) return engine.ResolveSpace(stage.space);
  return static_cast<int>(stage.kind);
}

Result<std::vector<SearchResult>> RunPlan(
    const SearchEngine& engine,
    const std::vector<std::vector<double>>& query_features, int exclude_id,
    const MultiStepPlan& plan, QueryStats* stats,
    QueryRequest::TimePoint deadline,
    std::vector<StageTiming>* stage_timings) {
  if (plan.stages.empty()) {
    return Status::InvalidArgument("multi-step: empty plan");
  }
  DESS_TIMED_SCOPE("search.multistep");
  MetricsRegistry* registry = MetricsRegistry::Global();
  std::vector<SearchResult> current;
  for (size_t s = 0; s < plan.stages.size(); ++s) {
    if (deadline != QueryRequest::TimePoint{} &&
        std::chrono::steady_clock::now() > deadline) {
      return Status::DeadlineExceeded(
          "multi-step query deadline passed before stage " +
          std::to_string(s));
    }
    const MultiStepStage& stage = plan.stages[s];
    DESS_ASSIGN_OR_RETURN(const int ordinal, StageOrdinal(engine, stage));
    if (ordinal < 0 ||
        ordinal >= static_cast<int>(query_features.size())) {
      return Status::InvalidArgument(
          "multi-step: query carries no feature for stage " +
          std::to_string(s));
    }
    const auto& feature = query_features[ordinal];
    const auto stage_start = std::chrono::steady_clock::now();
    if (s == 0) {
      // First stage: index search. Over-fetch by one when excluding the
      // query shape itself. When the stage's index is approximate and a
      // later stage will re-rank anyway, widen the kept set by the
      // engine's oversample factor: a true final-top-k member the graph
      // ranks slightly low still reaches the exact stages, which restore
      // the order. The final stage's keep still bounds the answer size.
      size_t k =
          stage.keep > 0 ? static_cast<size_t>(stage.keep) : engine.db().NumShapes();
      if (!engine.IsExactAt(ordinal) && plan.stages.size() > 1) {
        const size_t oversample = static_cast<size_t>(
            std::max(1, engine.options().approx_oversample));
        const size_t cap = engine.db().NumShapes();
        k = k > cap / oversample ? cap : k * oversample;
      }
      DESS_ASSIGN_OR_RETURN(
          current,
          engine.QueryTopKRaw(feature, ordinal,
                              k + (exclude_id >= 0 ? 1 : 0), nullptr, stats));
      if (exclude_id >= 0) {
        current.erase(std::remove_if(current.begin(), current.end(),
                                     [&](const SearchResult& r) {
                                       return r.id == exclude_id;
                                     }),
                      current.end());
      }
      if (current.size() > k) {
        current.resize(k);
      }
      if (registry->enabled()) {
        registry->AddCounter("multistep.queries");
        registry->AddCounter("multistep.step1_retrieved", current.size());
      }
    } else {
      // Later stages: filter the previous results with another feature
      // vector (re-rank and truncate).
      std::vector<int> ids;
      ids.reserve(current.size());
      for (const SearchResult& r : current) ids.push_back(r.id);
      if (registry->enabled()) {
        registry->AddCounter("multistep.reranked", ids.size());
      }
      DESS_ASSIGN_OR_RETURN(
          current,
          engine.Rerank(ids, feature, ordinal,
                        stage.keep > 0 ? static_cast<size_t>(stage.keep) : 0));
      if (stats != nullptr) {
        stats->points_compared += ids.size();
      }
      if (stage.keep > 0 && current.size() > static_cast<size_t>(stage.keep)) {
        current.resize(stage.keep);
      }
    }
    if (stage_timings != nullptr) {
      stage_timings->push_back(MakeStageTiming(
          s == 0 ? "search.query_topk" : "search.rerank", deadline,
          stage_start, std::chrono::steady_clock::now()));
    }
  }
  if (registry->enabled()) {
    registry->AddCounter("multistep.final_results", current.size());
  }
  return current;
}

}  // namespace

Result<std::vector<SearchResult>> MultiStepQueryById(
    const SearchEngine& engine, int query_id, const MultiStepPlan& plan,
    QueryStats* stats, QueryRequest::TimePoint deadline,
    std::vector<StageTiming>* stage_timings) {
  // Resolve every stage before touching the database so an unknown space
  // id fails InvalidArgument regardless of the query shape.
  for (const MultiStepStage& stage : plan.stages) {
    DESS_RETURN_NOT_OK(StageOrdinal(engine, stage).status());
  }
  std::vector<std::vector<double>> features(engine.NumSpaces());
  for (int ordinal = 0; ordinal < engine.NumSpaces(); ++ordinal) {
    DESS_ASSIGN_OR_RETURN(features[ordinal],
                          engine.db().Feature(query_id, ordinal));
  }
  return RunPlan(engine, features, query_id, plan, stats, deadline,
                 stage_timings);
}

Result<std::vector<SearchResult>> MultiStepQuery(const SearchEngine& engine,
                                                 const ShapeSignature& query,
                                                 const MultiStepPlan& plan,
                                                 QueryStats* stats,
                                                 QueryRequest::TimePoint deadline,
                                                 std::vector<StageTiming>* stage_timings) {
  std::vector<std::vector<double>> features(
      std::min(engine.NumSpaces(), query.NumSpaces()));
  for (size_t i = 0; i < features.size(); ++i) {
    features[i] = query.At(static_cast<int>(i)).values;
  }
  return RunPlan(engine, features, /*exclude_id=*/-1, plan, stats, deadline,
                 stage_timings);
}

}  // namespace dess
