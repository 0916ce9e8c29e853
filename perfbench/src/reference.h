#ifndef DESS_PERFBENCH_REFERENCE_H_
#define DESS_PERFBENCH_REFERENCE_H_

#include <functional>
#include <string>
#include <vector>

// Reference computations the benchmark checks the program against. They
// share no code with the program's search path: plain scalar loops over
// the vectors the benchmark generated (or read back from a snapshot).

namespace perfbench {

/// One ranked answer row: a shape id and its distance to the query.
struct Ranked {
  int id = -1;
  double distance = 0.0;
};

/// The rows a brute-force search ranks: ids[i] owns *vectors[i].
struct RowSet {
  std::vector<int> ids;
  std::vector<const std::vector<double>*> vectors;
};

/// Weighted Euclidean distance sqrt(sum_i w_i (a_i - b_i)^2) (the paper's
/// Eq. 4.3); empty `weights` means unit weights.
double WeightedDistance(const std::vector<double>& a,
                        const std::vector<double>& b,
                        const std::vector<double>& weights);

/// Brute-force top-k by weighted Euclidean distance, ascending by
/// (distance, id); `exclude_id` (>= 0) is left out, as a by-id query
/// leaves out its own shape.
std::vector<Ranked> BruteForceTopK(const std::vector<double>& query,
                                   const RowSet& rows,
                                   const std::vector<double>& weights,
                                   size_t k, int exclude_id = -1);

/// Exact distance of the answer rows' ids, for re-scoring answers.
using DistanceOf = std::function<double(int id)>;

/// True when two distances agree up to floating-point summation order.
bool SameDistance(double a, double b);

/// Checks an exact top-k answer against the brute-force truth and returns
/// an empty string when it holds, else what is wrong. Accepts any order
/// among equal distances: the answer must be as long as the truth, sorted,
/// free of duplicate ids, carry for every id the exact distance of that id,
/// and its distances must equal the truth's distances rank by rank.
std::string CheckExactTopK(const std::vector<Ranked>& answer,
                           const std::vector<Ranked>& truth,
                           const DistanceOf& distance_of);

/// Checks the properties an approximate answer must have whatever its
/// recall: sorted, free of duplicate ids, `exclude_id` absent, and every
/// distance equal to the exact distance of its id. Empty string when it
/// holds.
std::string CheckApproximateAnswer(const std::vector<Ranked>& answer,
                                   const DistanceOf& distance_of,
                                   int exclude_id = -1);

/// Recall@k of an answer against the brute-force truth: the share of the
/// truth's rows the answer found, where an answer row whose exact distance
/// ties the truth's last distance counts as found.
double RecallAtK(const std::vector<Ranked>& answer,
                 const std::vector<Ranked>& truth,
                 const DistanceOf& distance_of);

/// Precision@k against ground-truth labels: the share of the k answer
/// slots holding a row labelled `relevant_label` (an answer shorter than k
/// counts its missing slots as misses).
double PrecisionAtK(const std::vector<int>& answer_ids,
                    const std::function<int(int id)>& label_of,
                    int relevant_label, size_t k);

/// Self-test of the routines above on a five-point corpus whose distances
/// are computed by hand. Returns an empty string when every case holds.
std::string ReferenceSelfTest();

}  // namespace perfbench

#endif  // DESS_PERFBENCH_REFERENCE_H_
