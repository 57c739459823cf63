#ifndef SOSE_PERFBENCH_WORKLOADS_H_
#define SOSE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One threshold search: the parameters E1 or E8 hands to FindMinimalRows
/// and, per probe, to EstimateFailureProbability.
struct Search {
  /// Sweep and swept value, e.g. "e1.d/d=12" or "e8.osnap/d=16".
  std::string label;
  std::string family;
  int64_t d = 0;
  double epsilon = 0.0;
  double delta = 0.0;
  /// Ambient dimension of the Section 3 mixture.
  int64_t n = 0;
  /// Sketch column sparsity s; a probe at m uses min(s, m).
  int64_t sparsity = 1;
  int64_t trials_per_probe = 0;
  int64_t m_lo = 0;
  int64_t m_hi = 0;
  double relative_tolerance = 0.0;
  /// The E-suite search seed; probe m runs at DeriveSeed(seed, m).
  uint64_t seed = 0;
};

/// How a workload's trials are executed (EstimatorOptions::threads/workers).
struct Executor {
  int threads = 1;
  int workers = 1;
};

struct Workload {
  std::string name;
  Executor executor;
  /// When > 0, the same searches also run through the fork shard
  /// coordinator with this many workers, outside the timed interval: the
  /// untraced run checks that they reproduce the serial searches exactly,
  /// and the traced run times that executor per probe.
  int fork_workers = 0;
  /// Repetitions of the search list; each uses fresh E-suite seeds.
  int64_t reps = 0;
  std::vector<Search> searches;
};

/// The workload seed the m* table was recorded at. Repetition 0 at this
/// seed uses exactly E1's (11, 12, 13) and E8's (31, 32) default seeds.
inline constexpr uint64_t kDefaultSeed = 0;

/// Builds the fixed search list of `name` ("cs-sweep" or "dense-e8") for a
/// workload seed and run length. The repetition count is a
/// pure function of `seconds`, so the work never depends on timing. `tiny`
/// keeps one repetition of the first search of each sweep (self-test size).
/// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  bool tiny, Workload* out);

}  // namespace perfbench

#endif  // SOSE_PERFBENCH_WORKLOADS_H_
