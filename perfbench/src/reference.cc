#include "perfbench/src/reference.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

double WeightedDistance(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::vector<double>& weights) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += (weights.empty() ? 1.0 : weights[i]) * d * d;
  }
  return std::sqrt(sum);
}

std::vector<Ranked> BruteForceTopK(const std::vector<double>& query,
                                   const RowSet& rows,
                                   const std::vector<double>& weights,
                                   size_t k, int exclude_id) {
  std::vector<Ranked> all;
  all.reserve(rows.ids.size());
  for (size_t i = 0; i < rows.ids.size(); ++i) {
    if (rows.ids[i] == exclude_id) continue;
    all.push_back({rows.ids[i], WeightedDistance(query, *rows.vectors[i],
                                                 weights)});
  }
  const auto less = [](const Ranked& x, const Ranked& y) {
    return x.distance != y.distance ? x.distance < y.distance : x.id < y.id;
  };
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(), less);
  all.resize(keep);
  return all;
}

bool SameDistance(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::max(std::abs(a), std::abs(b)));
}

namespace {

// Shared shape checks: sorted ascending (up to rounding), no duplicate
// ids, every distance equal to its id's exact distance.
std::string CheckShape(const std::vector<Ranked>& answer,
                       const DistanceOf& distance_of) {
  std::set<int> seen;
  for (size_t i = 0; i < answer.size(); ++i) {
    if (!seen.insert(answer[i].id).second) {
      return "duplicate id " + std::to_string(answer[i].id);
    }
    if (i > 0 && answer[i].distance < answer[i - 1].distance &&
        !SameDistance(answer[i].distance, answer[i - 1].distance)) {
      return "answer not sorted at rank " + std::to_string(i);
    }
    const double exact = distance_of(answer[i].id);
    if (!SameDistance(answer[i].distance, exact)) {
      return "id " + std::to_string(answer[i].id) + " scored " +
             std::to_string(answer[i].distance) + ", exact " +
             std::to_string(exact);
    }
  }
  return "";
}

}  // namespace

std::string CheckExactTopK(const std::vector<Ranked>& answer,
                           const std::vector<Ranked>& truth,
                           const DistanceOf& distance_of) {
  if (answer.size() != truth.size()) {
    return "answer has " + std::to_string(answer.size()) + " rows, truth " +
           std::to_string(truth.size());
  }
  if (std::string why = CheckShape(answer, distance_of); !why.empty()) {
    return why;
  }
  for (size_t i = 0; i < answer.size(); ++i) {
    if (!SameDistance(answer[i].distance, truth[i].distance)) {
      return "rank " + std::to_string(i) + " distance " +
             std::to_string(answer[i].distance) + ", truth " +
             std::to_string(truth[i].distance);
    }
  }
  return "";
}

std::string CheckApproximateAnswer(const std::vector<Ranked>& answer,
                                   const DistanceOf& distance_of,
                                   int exclude_id) {
  for (const Ranked& r : answer) {
    if (r.id == exclude_id) return "answer holds the query shape";
  }
  return CheckShape(answer, distance_of);
}

double RecallAtK(const std::vector<Ranked>& answer,
                 const std::vector<Ranked>& truth,
                 const DistanceOf& distance_of) {
  if (truth.empty()) return 1.0;
  const double last = truth.back().distance;
  size_t found = 0;
  for (const Ranked& r : answer) {
    const double d = distance_of(r.id);
    if (d <= last || SameDistance(d, last)) ++found;
  }
  return static_cast<double>(std::min(found, truth.size())) /
         static_cast<double>(truth.size());
}

double PrecisionAtK(const std::vector<int>& answer_ids,
                    const std::function<int(int id)>& label_of,
                    int relevant_label, size_t k) {
  if (k == 0) return 0.0;
  size_t hits = 0;
  for (size_t i = 0; i < answer_ids.size() && i < k; ++i) {
    if (label_of(answer_ids[i]) == relevant_label) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

std::string ReferenceSelfTest() {
  // Five 2-d points; distances to the origin under unit weights are
  // 0, 5, 1, 2, 1 and under weights (4, 1) are 0, sqrt(52), 2, 2, 2.
  const std::vector<std::vector<double>> points = {
      {0, 0}, {3, 4}, {1, 0}, {0, 2}, {-1, 0}};
  const std::vector<int> labels = {0, 1, 0, 0, 1};
  RowSet rows;
  for (int i = 0; i < 5; ++i) {
    rows.ids.push_back(i);
    rows.vectors.push_back(&points[i]);
  }
  const std::vector<double> origin = {0, 0};
  const std::vector<double> unit;
  const std::vector<double> skewed = {4, 1};
  auto distance_under = [&](const std::vector<double>& w) {
    return [&points, &origin, w](int id) {
      return WeightedDistance(origin, points[id], w);
    };
  };
  if (WeightedDistance(origin, points[1], unit) != 5.0) {
    return "unit distance to (3,4) is not 5";
  }
  if (WeightedDistance(origin, points[1], skewed) != std::sqrt(52.0)) {
    return "weighted distance to (3,4) is not sqrt(52)";
  }
  const std::vector<Ranked> top3 = BruteForceTopK(origin, rows, unit, 3);
  if (top3.size() != 3 || top3[0].id != 0 || top3[1].id != 2 ||
      top3[2].id != 4 || top3[1].distance != 1.0 ||
      top3[2].distance != 1.0) {
    return "unit top-3 is not [0, 2, 4] at [0, 1, 1]";
  }
  const std::vector<Ranked> top2 =
      BruteForceTopK(origin, rows, skewed, 2, /*exclude_id=*/0);
  if (top2.size() != 2 || top2[0].id != 2 || top2[1].id != 3 ||
      top2[0].distance != 2.0) {
    return "weighted top-2 excluding 0 is not [2, 3] at [2, 2]";
  }
  const DistanceOf skewed_of = distance_under(skewed);
  // Three rows tie at distance 2: any two of them are a correct answer.
  if (!CheckExactTopK({{4, 2.0}, {3, 2.0}}, top2, skewed_of).empty() ||
      !CheckExactTopK({{3, 2.0}, {2, 2.0}}, top2, skewed_of).empty()) {
    return "a tie-equivalent answer was rejected";
  }
  if (CheckExactTopK({{2, 2.0}, {1, std::sqrt(52.0)}}, top2, skewed_of)
          .empty()) {
    return "an answer holding a farther row was accepted";
  }
  if (CheckExactTopK({{2, 2.0}, {2, 2.0}}, top2, skewed_of).empty()) {
    return "an answer with a duplicate id was accepted";
  }
  if (CheckExactTopK({{2, 2.0}, {3, 2.5}}, top2, skewed_of).empty()) {
    return "an answer with a wrong score was accepted";
  }
  if (CheckApproximateAnswer({{0, 0.0}, {2, 2.0}}, skewed_of, 0).empty()) {
    return "an approximate answer holding the query was accepted";
  }
  if (RecallAtK({{4, 2.0}, {3, 2.0}}, top2, skewed_of) != 1.0 ||
      RecallAtK({{2, 2.0}, {1, std::sqrt(52.0)}}, top2, skewed_of) != 0.5) {
    return "recall@2 is not 1.0 for a tie answer and 0.5 for a half miss";
  }
  const auto label_of = [&labels](int id) { return labels[id]; };
  if (PrecisionAtK({2, 3, 4}, label_of, 0, 3) != 2.0 / 3.0 ||
      PrecisionAtK({2}, label_of, 0, 2) != 0.5) {
    return "precision@k does not count label matches over k slots";
  }
  return "";
}

}  // namespace perfbench
