#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

namespace {

std::string Trim(double value) {
  std::string text = std::to_string(value);
  text.erase(text.find_last_not_of('0') + 1);
  if (!text.empty() && text.back() == '.') text.pop_back();
  return text;
}

// bench_e1_countsketch_threshold's MeasureThreshold, full (non-quick) size.
Search E1Search(const std::string& label, int64_t d, double epsilon,
                double delta, uint64_t seed) {
  Search search;
  search.label = label;
  search.family = "countsketch";
  search.d = d;
  search.epsilon = epsilon;
  search.delta = delta;
  const int64_t n_needed = static_cast<int64_t>(
      32.0 * static_cast<double>(d * d) / (epsilon * epsilon * delta));
  search.n = std::max(int64_t{1} << 18, n_needed);
  search.sparsity = 1;
  search.trials_per_probe = std::min<int64_t>(
      800, std::max<int64_t>(200, static_cast<int64_t>(30.0 / delta)));
  search.m_lo = 4;
  search.m_hi = int64_t{1} << 22;
  search.relative_tolerance = 0.05;
  search.seed = seed;
  return search;
}

// bench_e8_upper_bounds's Threshold at its default ε = 1/16, δ = 0.2.
Search E8Search(const std::string& family, int64_t d, uint64_t seed) {
  constexpr double kEpsilon = 1.0 / 16.0;
  constexpr double kDelta = 0.2;
  Search search;
  search.label = "e8." + family + "/d=" + std::to_string(d);
  search.family = family;
  search.d = d;
  search.epsilon = kEpsilon;
  search.delta = kDelta;
  search.n = int64_t{1} << 21;
  // OSNAP's upper-bound regime s = round(log2(d/δ)/(2ε)), as in E8.
  search.sparsity =
      family == "osnap"
          ? std::max<int64_t>(
                2, static_cast<int64_t>(std::llround(
                       std::log2(static_cast<double>(d) / kDelta) /
                       (2.0 * kEpsilon))))
          : 1;
  search.trials_per_probe = 200;
  search.m_lo = 4;
  search.m_hi = int64_t{1} << 21;
  search.relative_tolerance = 0.06;
  search.seed = seed;
  return search;
}

// Seeds of repetition r: base + kSeedStride * seed + r * (seeds per rep).
// The stride keeps the repetitions of neighbouring workload seeds disjoint
// for up to kSeedStride / 3 repetitions.
constexpr uint64_t kSeedStride = 1000;

void AddCountSketchSweeps(uint64_t seed, int64_t reps, bool tiny,
                          std::vector<Search>* out) {
  const std::vector<int64_t> ds = {4, 6, 8, 12, 16, 24};
  const std::vector<double> inv_epses = {16.0, 32.0, 64.0, 128.0};
  const std::vector<double> deltas = {0.4, 0.2, 0.1, 0.05};
  const size_t per_sweep = tiny ? 1 : ds.size();
  for (int64_t r = 0; r < reps; ++r) {
    const uint64_t base =
        11 + kSeedStride * seed + 3 * static_cast<uint64_t>(r);
    for (size_t i = 0; i < std::min(per_sweep, ds.size()); ++i) {
      out->push_back(E1Search("e1.d/d=" + std::to_string(ds[i]), ds[i],
                              1.0 / 16.0, 0.2, base));
    }
    for (size_t i = 0; i < std::min(per_sweep, inv_epses.size()); ++i) {
      out->push_back(E1Search("e1.inv_eps/inv_eps=" + Trim(inv_epses[i]), 4,
                              1.0 / inv_epses[i], 0.2, base + 1));
    }
    for (size_t i = 0; i < std::min(per_sweep, deltas.size()); ++i) {
      out->push_back(E1Search("e1.inv_delta/inv_delta=" + Trim(1.0 / deltas[i]),
                              4, 1.0 / 16.0, deltas[i], base + 2));
    }
  }
}

void AddDenseSearches(uint64_t seed, int64_t reps, bool tiny,
                      std::vector<Search>* out) {
  const std::vector<int64_t> gaussian_ds = {4, 6, 8};
  const std::vector<int64_t> osnap_ds = {8, 16, 24};
  const size_t per_family = tiny ? 1 : 3;
  for (int64_t r = 0; r < reps; ++r) {
    const uint64_t base =
        31 + kSeedStride * seed + 2 * static_cast<uint64_t>(r);
    for (size_t i = 0; i < per_family; ++i) {
      out->push_back(E8Search("gaussian", gaussian_ds[i], base));
    }
    for (size_t i = 0; i < per_family; ++i) {
      out->push_back(E8Search("osnap", osnap_ds[i], base + 1));
    }
  }
}

// Nominal seconds one repetition takes on a 4-core x86-64 host; only used
// to turn --seconds into a fixed repetition count.
constexpr double kCountSketchRepSeconds = 0.47;
constexpr double kDenseRepSeconds = 4.6;

int64_t Reps(double seconds, double rep_seconds) {
  return std::max<int64_t>(1, std::llround(seconds / rep_seconds));
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  bool tiny, Workload* out) {
  out->name = name;
  out->searches.clear();
  if (name == "cs-sweep") {
    out->executor = Executor{1, 1};
    out->fork_workers = 2;
    out->reps = tiny ? 1 : Reps(seconds, kCountSketchRepSeconds);
    AddCountSketchSweeps(seed, out->reps, tiny, &out->searches);
    return true;
  }
  if (name == "dense-e8") {
    out->executor = Executor{2, 1};
    out->reps = tiny ? 1 : Reps(seconds, kDenseRepSeconds);
    AddDenseSearches(seed, out->reps, tiny, &out->searches);
    return true;
  }
  return false;
}

}  // namespace perfbench
