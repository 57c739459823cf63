// The threshold-search benchmark driver (see README.md).
//
// Untraced mode runs a workload's fixed search list through the public path
// E1 and E8 use — FindMinimalRows → EstimateFailureProbability → RunTrials —
// and reports end-to-end numbers. Traced mode (--trace) runs the same list
// again with each probe calling RunTrials directly around a timing wrapper,
// then replays every probe's trials serially stage by stage through each
// layer's public functions to get the per-layer numbers.
//
// Flags: --workload=NAME --seed=N --seconds=S [--trace] [--tiny]
//        [--table=FILE] [--spans=FILE] [--setup-only]
// Prints one JSON object on stdout; the launcher (run.py) adds set-up time
// and provenance and prints the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/flags.h"
#include "core/linalg_eigen.h"
#include "core/metrics/metrics.h"
#include "core/random.h"
#include "core/simd/dispatch.h"
#include "hardinstance/mixtures.h"
#include "ose/failure_estimator.h"
#include "ose/threshold_search.h"
#include "ose/trial_runner.h"
#include "sketch/registry.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sose::FailureEstimate;
using sose::Result;
using sose::SectionThreeMixture;

// ---------------------------------------------------------------- output

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Builds one JSON object; values are pre-rendered JSON text.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, Quote(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, Number(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// The highest of the usual percentiles with at least ten samples beyond it,
/// else the median. Returns the percentile and its value.
std::pair<double, double> TailPercentile(std::vector<double> values) {
  if (values.empty()) return {50.0, std::nan("")};
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n)) - 1;
    if (values.size() - 1 - rank >= 10) return {pct, values[rank]};
  }
  return {50.0, Median(values)};
}

/// User plus system CPU seconds of this process and its reaped children
/// (the fork executor's shard workers).
double CpuSeconds() {
  double seconds = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    seconds += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                          ru.ru_stime.tv_usec);
  }
  return seconds;
}

/// Peak resident set of this process in MiB. VmHWM, not ru_maxrss: Linux
/// carries ru_maxrss across execve, so it would report the launcher's
/// footprint whenever that is the larger one.
double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

// ---------------------------------------------------------------- searches

/// Recorded m* per "label@seed" (see mstar_table.txt).
using MStarTable = std::map<std::string, int64_t>;

std::string TableKey(const Search& search) {
  return search.label + "@" + std::to_string(search.seed);
}

bool ReadTable(const std::string& path, MStarTable* table) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("label,", 0) == 0) {
      continue;
    }
    const size_t a = line.find(',');
    const size_t b = line.find(',', a + 1);
    if (a == std::string::npos || b == std::string::npos) return false;
    const std::string key =
        line.substr(0, a) + "@" + line.substr(a + 1, b - a - 1);
    try {
      (*table)[key] = std::stoll(line.substr(b + 1));
    } catch (const std::exception&) {
      return false;
    }
  }
  return true;
}

sose::SketchFactory Factory(const Search& search, int64_t m) {
  return [family = search.family, m, n = search.n,
          sparsity = std::min(search.sparsity, m)](uint64_t seed)
             -> Result<std::unique_ptr<sose::SketchingMatrix>> {
    sose::SketchConfig config;
    config.rows = m;
    config.cols = n;
    config.sparsity = sparsity;
    config.seed = seed;
    return sose::CreateSketch(family, config);
  };
}

sose::InstanceSampler Sampler(const SectionThreeMixture& mixture) {
  return [&mixture](sose::Rng* rng) { return mixture.Sample(rng); };
}

sose::ThresholdSearchOptions SearchOptions(const Search& search) {
  sose::ThresholdSearchOptions options;
  options.m_lo = search.m_lo;
  options.m_hi = search.m_hi;
  options.delta = search.delta;
  options.relative_tolerance = search.relative_tolerance;
  return options;
}

struct ProbeRecord {
  int64_t m = 0;
  int64_t completed = 0;
  int64_t failures = 0;
  int64_t faulted = 0;
  bool partial = false;

  bool operator==(const ProbeRecord& other) const = default;
};

struct SearchOutcome {
  const Search* search = nullptr;
  std::string error;  ///< non-empty iff FindMinimalRows returned an error
  int64_t m_star = 0;
  bool bracketed = false;
  std::vector<ProbeRecord> probes;
  double seconds = 0.0;
  /// Why the search counts as failed; empty when it passed every check.
  std::string failure;

  int64_t Trials() const {
    int64_t total = 0;
    for (const ProbeRecord& probe : probes) total += probe.completed;
    return total;
  }
};

SearchOutcome ToOutcome(const Search& search,
                        const Result<sose::ThresholdResult>& result) {
  SearchOutcome outcome;
  outcome.search = &search;
  if (!result.ok()) {
    outcome.error = result.status().ToString();
    return outcome;
  }
  outcome.m_star = result.value().m_star;
  outcome.bracketed = result.value().bracketed;
  for (const sose::ThresholdProbe& probe : result.value().probes) {
    const FailureEstimate& e = probe.estimate;
    outcome.probes.push_back(
        ProbeRecord{probe.m, e.completed, e.failures, e.faulted, e.partial});
  }
  return outcome;
}

/// The output check behind `failed`: an error, an unbracketed search, a
/// faulted or partial probe, or an m* that differs from the recorded table.
void CheckOutcome(const MStarTable& table, SearchOutcome* outcome) {
  if (!outcome->error.empty()) {
    outcome->failure = "error: " + outcome->error;
    return;
  }
  if (!outcome->bracketed) {
    outcome->failure = "not bracketed";
    return;
  }
  for (const ProbeRecord& probe : outcome->probes) {
    if (probe.faulted > 0 || probe.partial) {
      outcome->failure = "probe m=" + std::to_string(probe.m) +
                         " faulted or partial";
      return;
    }
  }
  const auto it = table.find(TableKey(*outcome->search));
  if (it != table.end() && it->second != outcome->m_star) {
    outcome->failure = "m*=" + std::to_string(outcome->m_star) +
                       " but the table records " + std::to_string(it->second);
  }
}

SearchOutcome RunSearch(const Search& search,
                        const SectionThreeMixture& mixture,
                        const Executor& executor) {
  auto failure_at = [&](int64_t m) -> Result<FailureEstimate> {
    sose::EstimatorOptions options;
    options.trials = search.trials_per_probe;
    options.epsilon = search.epsilon;
    options.seed = sose::DeriveSeed(search.seed, static_cast<uint64_t>(m));
    options.threads = executor.threads;
    options.workers = executor.workers;
    return sose::EstimateFailureProbability(Factory(search, m),
                                            Sampler(mixture), options);
  };
  const int64_t start = NowNs();
  SearchOutcome outcome =
      ToOutcome(search, sose::FindMinimalRows(failure_at, SearchOptions(search)));
  outcome.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  return outcome;
}

std::string OutcomesJson(const std::vector<SearchOutcome>& outcomes) {
  std::string out = "[";
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const SearchOutcome& o = outcomes[i];
    std::string probes = "[";
    for (size_t p = 0; p < o.probes.size(); ++p) {
      const ProbeRecord& probe = o.probes[p];
      char triple[80];
      std::snprintf(triple, sizeof(triple), "%s[%lld,%lld,%lld]",
                    p > 0 ? "," : "", static_cast<long long>(probe.m),
                    static_cast<long long>(probe.completed),
                    static_cast<long long>(probe.failures));
      probes += triple;
    }
    probes += "]";
    JsonObject search;
    search.Str("label", o.search->label)
        .Int("seed", static_cast<int64_t>(o.search->seed))
        .Int("m_star", o.m_star)
        .Bool("bracketed", o.bracketed)
        .Num("seconds", o.seconds)
        .Int("trials", o.Trials())
        .Raw("probes", probes)
        .Str("failure", o.failure);
    if (i > 0) out += ",";
    out += search.str();
  }
  return out + "]";
}

std::string SearchParamsJson(const Workload& workload) {
  std::string out = "[";
  for (size_t i = 0; i < workload.searches.size(); ++i) {
    const Search& s = workload.searches[i];
    JsonObject search;
    search.Str("label", s.label)
        .Str("family", s.family)
        .Int("d", s.d)
        .Num("epsilon", s.epsilon)
        .Num("delta", s.delta)
        .Int("n", s.n)
        .Int("sparsity", s.sparsity)
        .Int("trials_per_probe", s.trials_per_probe)
        .Int("m_lo", s.m_lo)
        .Int("m_hi", s.m_hi)
        .Num("relative_tolerance", s.relative_tolerance)
        .Int("seed", static_cast<int64_t>(s.seed));
    if (i > 0) out += ",";
    out += search.str();
  }
  return out + "]";
}

// ---------------------------------------------------------------- untraced

struct UntracedResult {
  std::vector<SearchOutcome> outcomes;
  double wall_total_s = 0.0;
  std::vector<double> rep_wall_s;
  std::vector<double> rep_cpu_s;
  double peak_rss_mb = 0.0;
};

/// Runs the search list and times each repetition. The workload's list is
/// `reps` copies of the same sweeps, laid out repetition by repetition.
UntracedResult RunUntraced(const Workload& workload,
                           const std::vector<SectionThreeMixture>& mixtures) {
  UntracedResult result;
  const size_t per_rep =
      workload.searches.size() / static_cast<size_t>(workload.reps);
  const int64_t start = NowNs();
  for (size_t first = 0; first < workload.searches.size(); first += per_rep) {
    const double cpu_start = CpuSeconds();
    const int64_t rep_start = NowNs();
    for (size_t i = first; i < first + per_rep; ++i) {
      result.outcomes.push_back(
          RunSearch(workload.searches[i], mixtures[i], workload.executor));
    }
    result.rep_wall_s.push_back(static_cast<double>(NowNs() - rep_start) *
                                1e-9);
    result.rep_cpu_s.push_back(CpuSeconds() - cpu_start);
  }
  result.wall_total_s = static_cast<double>(NowNs() - start) * 1e-9;
  result.peak_rss_mb = PeakRssMib();
  return result;
}

std::string DoublesJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Number(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------- traced

struct LayerTotals {
  int64_t searches = 0;
  int64_t probes = 0;
  int64_t undecided = 0;
  int64_t search_trials = 0;  ///< completed trials folded by RunTrials
  std::vector<double> probe_ms;
  // Executor accounting, nanoseconds: the estimator's RunTrials on the
  // workload executor, the fork shard coordinator's, and the serial
  // replay's.
  int64_t exec_run_ns = 0;
  int64_t exec_busy_ns = 0;
  int64_t fork_run_ns = 0;
  int64_t replay_run_ns = 0;
  int64_t replay_trial_ns = 0;
  /// Replayed time in the calls MakeFailureTrialFn makes (sketch draw,
  /// instance draw, distortion): the serial busy time of the trials.
  int64_t trial_stage_ns = 0;
  // Replay.
  int64_t replayed = 0;
  int64_t draws = 0;
  int64_t column_entries = 0;
  int64_t touched_rows = 0;
  int64_t mismatched_probes = 0;
};

/// Per-probe scratch for counting distinct sketch rows: row r was seen in
/// the current trial iff stamp[r] == current.
struct RowStamps {
  std::vector<int64_t> stamp;
  int64_t current = 0;
};

/// Replays trial `trial_seed` the way MakeFailureTrialFn runs it, one span
/// per stage, plus the extra stage calls the per-layer numbers need
/// (ColumnInto over U's rows, and the eigensolve on Gram(ApplyBatch(U))).
Result<sose::TrialOutcome> ReplayTrial(const Search& search, int64_t m,
                                       const SectionThreeMixture& mixture,
                                       uint64_t trial_seed, int32_t parent,
                                       SpanRecorder* spans, RowStamps* stamps,
                                       LayerTotals* totals) {
  const int32_t trial = spans->Open(kTrial, parent);
  struct CloseTrial {
    SpanRecorder* spans;
    int32_t index;
    LayerTotals* totals;
    ~CloseTrial() { totals->replay_trial_ns += spans->Close(index); }
  } close_trial{spans, trial, totals};

  int32_t stage = spans->Open(kSketchCreate, trial);
  auto sketch = Factory(search, m)(sose::DeriveSeed(trial_seed, 0));
  totals->trial_stage_ns += spans->Close(stage);
  if (!sketch.ok()) return sketch.status();

  sose::Rng rng(sose::DeriveSeed(trial_seed, 1));
  const int64_t max_redraws = sose::FailureTrialPolicy{}.max_redraws;
  stage = spans->Open(kInstanceDraw, trial);
  sose::HardInstance instance = mixture.Sample(&rng);
  int64_t redraws = 0;
  while (instance.HasRowCollision() && redraws < max_redraws) {
    instance = mixture.Sample(&rng);
    ++redraws;
  }
  totals->trial_stage_ns += spans->Close(stage);
  totals->draws += 1 + redraws;
  if (instance.HasRowCollision()) {
    return sose::Status::FailedPrecondition("persistent row collisions");
  }

  const std::vector<int64_t> ambient_rows = instance.TouchedRows();
  std::vector<sose::ColumnEntry> entries;
  ++stamps->current;
  stage = spans->Open(kSketchColumns, trial);
  for (const int64_t row : ambient_rows) {
    sketch.value()->ColumnInto(row, &entries);
    totals->column_entries += static_cast<int64_t>(entries.size());
    for (const sose::ColumnEntry& entry : entries) {
      int64_t& seen = stamps->stamp[static_cast<size_t>(entry.row)];
      totals->touched_rows += seen != stamps->current ? 1 : 0;
      seen = stamps->current;
    }
  }
  spans->Close(stage);

  stage = spans->Open(kDistortion, trial);
  auto report = sose::SketchDistortionOnInstance(*sketch.value(), instance);
  totals->trial_stage_ns += spans->Close(stage);
  if (!report.ok()) return report.status();

  // Gram(ApplyBatch(U)) over the sketched basis' nonzero rows only: the
  // zero rows add nothing, and skipping them keeps the replay affordable at
  // large m.
  stage = spans->Open(kLinalgPrep, trial);
  auto sketched = sketch.value()->ApplyBatch(instance.ToCsc());
  sose::Matrix gram;
  if (sketched.ok()) {
    const sose::Matrix& full = sketched.value();
    const int64_t d = full.cols();
    std::vector<double> nonzero_rows;
    for (int64_t i = 0; i < full.rows(); ++i) {
      const double* row = full.Row(i);
      if (std::any_of(row, row + d, [](double v) { return v != 0.0; })) {
        nonzero_rows.insert(nonzero_rows.end(), row, row + d);
      }
    }
    const int64_t k = static_cast<int64_t>(nonzero_rows.size()) / d;
    gram = sose::Gram(sose::Matrix(k, d, std::move(nonzero_rows)));
  }
  spans->Close(stage);
  if (!sketched.ok()) return sketched.status();
  stage = spans->Open(kLinalgEigen, trial);
  auto eigenvalues = sose::SymmetricEigenvalues(gram);
  spans->Close(stage);
  if (!eigenvalues.ok()) return eigenvalues.status();

  if (!std::isfinite(report.value().min_factor) ||
      !std::isfinite(report.value().max_factor)) {
    return sose::Status::NumericalError("non-finite distortion");
  }
  ++totals->replayed;
  return sose::TrialOutcome{report.value().Epsilon(),
                            !report.value().WithinEpsilon(search.epsilon)};
}

sose::TrialRunnerOptions RunnerOptions(int64_t trials, uint64_t seed,
                                       const Executor& executor) {
  sose::TrialRunnerOptions options;
  options.trials = trials;
  options.seed = seed;
  options.threads = executor.threads;
  options.workers = executor.workers;
  return options;
}

/// The fold fields the fork run and the replay must reproduce exactly.
bool SameFold(const sose::TrialRunReport& a, const sose::TrialRunReport& b) {
  return a.completed == b.completed && a.failures == b.failures &&
         a.faulted == b.faulted && a.partial == b.partial;
}

/// One traced search. Every probe runs EstimateFailureProbability's body —
/// RunTrials over MakeFailureTrialFn inside a busy-time wrapper — on the
/// workload executor; its estimate drives the search. Where the workload
/// names fork workers, the same trials then run on the fork shard
/// coordinator. Last, a serial RunTrials over the same seeds replays each
/// trial stage by stage. A probe whose fork or replayed fold differs from
/// the executor's is counted in `mismatched_probes`.
SearchOutcome RunTracedSearch(const Workload& workload, const Search& search,
                              const SectionThreeMixture& mixture,
                              SpanRecorder* spans, LayerTotals* totals) {
  const int32_t search_span = spans->Open(kSearch, -1);
  bool mismatch_in_search = false;
  auto failure_at = [&](int64_t m) -> Result<FailureEstimate> {
    const int32_t probe = spans->Open(kProbe, search_span);
    const uint64_t probe_seed =
        sose::DeriveSeed(search.seed, static_cast<uint64_t>(m));
    sose::FailureTrialPolicy policy;
    policy.epsilon = search.epsilon;

    std::atomic<int64_t> busy_ns{0};
    const int32_t estimator = spans->Open(kEstimator, probe);
    const sose::TrialFn inner =
        sose::MakeFailureTrialFn(Factory(search, m), Sampler(mixture), policy);
    const sose::TrialFn timed = [&inner, &busy_ns](uint64_t seed) {
      const int64_t start = NowNs();
      auto outcome = inner(seed);
      busy_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
      return outcome;
    };
    auto report = sose::RunTrials(
        timed,
        RunnerOptions(search.trials_per_probe, probe_seed, workload.executor));
    std::optional<FailureEstimate> estimate;
    if (report.ok()) estimate = sose::SummarizeTrialReport(report.value());
    const int64_t exec_ns = spans->Close(estimator);
    if (!report.ok()) {
      spans->Close(probe);
      return report.status();
    }
    totals->probe_ms.push_back(static_cast<double>(exec_ns) * 1e-6);
    totals->exec_run_ns += exec_ns;
    totals->exec_busy_ns += busy_ns.load();
    bool mismatch = false;

    if (workload.fork_workers > 0) {
      const int32_t fork_run = spans->Open(kForkRun, probe);
      auto forked = sose::RunTrials(
          inner, RunnerOptions(search.trials_per_probe, probe_seed,
                               Executor{1, workload.fork_workers}));
      totals->fork_run_ns += spans->Close(fork_run);
      mismatch = !forked.ok() || !SameFold(forked.value(), report.value());
    }

    RowStamps stamps;
    stamps.stamp.assign(static_cast<size_t>(m), 0);
    const int32_t replay = spans->Open(kReplay, probe);
    const sose::TrialFn replay_fn = [&](uint64_t seed) {
      return ReplayTrial(search, m, mixture, seed, replay, spans, &stamps,
                         totals);
    };
    auto replayed = sose::RunTrials(
        replay_fn,
        RunnerOptions(search.trials_per_probe, probe_seed, Executor{}));
    totals->replay_run_ns += spans->Close(replay);
    mismatch = mismatch || !replayed.ok() ||
               !SameFold(replayed.value(), report.value());
    totals->mismatched_probes += mismatch ? 1 : 0;
    mismatch_in_search = mismatch_in_search || mismatch;

    totals->probes += 1;
    totals->search_trials += estimate->completed;
    if (estimate->interval.lo <= search.delta &&
        search.delta <= estimate->interval.hi) {
      ++totals->undecided;
    }
    spans->Close(probe);
    return *estimate;
  };
  const int64_t start = NowNs();
  SearchOutcome outcome =
      ToOutcome(search, sose::FindMinimalRows(failure_at, SearchOptions(search)));
  outcome.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  spans->Close(search_span);
  ++totals->searches;
  if (mismatch_in_search) outcome.failure = "replay differs from the executor";
  return outcome;
}

int64_t CounterValue(const sose::metrics::MetricsSnapshot& snapshot,
                     const std::string& name) {
  for (const auto& [key, value] : snapshot.counters) {
    if (key == name) return value;
  }
  return 0;
}

std::string PerLayerJson(const Workload& workload, const LayerTotals& t,
                         const SpanRecorder& spans, double untraced_wall_s,
                         double traced_wall_s,
                         const sose::metrics::MetricsSnapshot& counters,
                         double* tail_pct) {
  std::vector<double> total_s;
  std::vector<double> self_s;
  spans.Totals(&total_s, &self_s);
  const double trials = static_cast<double>(std::max<int64_t>(1, t.search_trials));
  const double replayed = static_cast<double>(std::max<int64_t>(1, t.replayed));
  const double us_per_replayed = 1e6 / replayed;
  const Executor& ex = workload.executor;
  const double pool_overhead_ns =
      ex.threads > 1 ? static_cast<double>(t.exec_run_ns) -
                           static_cast<double>(t.exec_busy_ns) / ex.threads
                     : 0.0;
  const int forks = workload.fork_workers;
  const double shard_overhead_ns =
      forks > 0 ? static_cast<double>(t.fork_run_ns) -
                      static_cast<double>(t.trial_stage_ns) / forks
                : 0.0;
  const auto [pct, tail_ms] = TailPercentile(t.probe_ms);
  *tail_pct = pct;
  auto metric = [](double value, const char* unit) {
    return JsonObject().Num("value", value).Str("unit", unit).str();
  };
  JsonObject m;
  m.Raw("search.probes", metric(static_cast<double>(t.probes), "count"))
      .Raw("search.trials_per_mstar",
           metric(static_cast<double>(t.search_trials) /
                      static_cast<double>(std::max<int64_t>(1, t.searches)),
                  "count"))
      .Raw("search.undecided_frac",
           metric(static_cast<double>(t.undecided) /
                      static_cast<double>(std::max<int64_t>(1, t.probes)),
                  "fraction"))
      .Raw("estimator.probe_p50_ms", metric(Median(t.probe_ms), "ms"))
      .Raw("estimator.probe_tail_ms", metric(tail_ms, "ms"))
      .Raw("runner.overhead_us_per_trial",
           metric(static_cast<double>(t.replay_run_ns - t.replay_trial_ns) *
                      1e-3 / trials,
                  "us"))
      .Raw("pool.overhead_us_per_trial",
           metric(pool_overhead_ns * 1e-3 / trials, "us"))
      .Raw("shard.overhead_us_per_trial",
           metric(shard_overhead_ns * 1e-3 / trials, "us"));
  for (const char* counter : {"shard.dispatched", "shard.redispatched",
                              "shard.worker_failures",
                              "shard.heartbeat_misses"}) {
    m.Raw(counter, metric(static_cast<double>(CounterValue(counters, counter)),
                          "count"));
  }
  const double distortion_s = total_s[kDistortion];
  m.Raw("sketch.draw_us_per_trial",
        metric((total_s[kSketchCreate] + total_s[kSketchColumns]) *
                   us_per_replayed,
               "us"))
      .Raw("sketch.column_entries_per_trial",
           metric(static_cast<double>(t.column_entries) / replayed, "count"))
      .Raw("instance.draw_us_per_trial",
           metric(total_s[kInstanceDraw] * us_per_replayed, "us"))
      .Raw("instance.accept_frac",
           metric(static_cast<double>(t.replayed) /
                      static_cast<double>(std::max<int64_t>(1, t.draws)),
                  "fraction"))
      .Raw("distortion.us_per_trial", metric(distortion_s * us_per_replayed, "us"))
      .Raw("distortion.gram_us_per_trial",
           metric((distortion_s - total_s[kLinalgEigen]) * us_per_replayed,
                  "us"))
      .Raw("distortion.touched_rows_per_trial",
           metric(static_cast<double>(t.touched_rows) / replayed, "count"))
      .Raw("linalg.eigen_us_per_trial",
           metric(total_s[kLinalgEigen] * us_per_replayed, "us"))
      .Raw("trace.overhead_frac",
           metric(traced_wall_s / untraced_wall_s - 1.0, "fraction"));
  return m.str();
}

std::string SpanTotalsJson(const SpanRecorder& spans) {
  std::vector<double> total_s;
  std::vector<double> self_s;
  spans.Totals(&total_s, &self_s);
  JsonObject out;
  for (int32_t name = 0; name < kNumSpanNames; ++name) {
    out.Raw(SpanNameString(name), JsonObject()
                                      .Num("total_s", total_s[name])
                                      .Num("self_s", self_s[name])
                                      .str());
  }
  return out.str();
}

// ---------------------------------------------------------------- main

int Main(int argc, char** argv) {
  sose::FlagParser flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(kDefaultSeed)));
  const double seconds = flags.GetDoubleInRange("seconds", 10.0, 0.1, 3600.0);
  const bool trace = flags.GetBool("trace", false);
  const bool tiny = flags.GetBool("tiny", false);
  const std::string table_path = flags.GetString("table", "");
  const std::string spans_path = flags.GetString("spans", "");

  // ---- set-up: kernel dispatch, workload generation, the m* table and
  // every search's mixture.
  const sose::Status kernels = sose::simd::SelectKernelsFromSpec("");
  if (!kernels.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", kernels.ToString().c_str());
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(name, seed, seconds, tiny, &workload)) {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n", name.c_str());
    return 2;
  }
  MStarTable table;
  if (!table_path.empty() && !ReadTable(table_path, &table)) {
    std::fprintf(stderr, "perfbench: cannot read m* table %s\n",
                 table_path.c_str());
    return 2;
  }
  std::vector<SectionThreeMixture> mixtures;
  for (const Search& search : workload.searches) {
    auto mixture = SectionThreeMixture::Create(search.n, search.d, search.epsilon);
    if (!mixture.ok()) {
      std::fprintf(stderr, "perfbench: %s: %s\n", search.label.c_str(),
                   mixture.status().ToString().c_str());
      return 2;
    }
    mixtures.push_back(std::move(mixture).value());
  }
  const int64_t setup_end_ns = NowNs();

  JsonObject out;
  out.Str("workload", workload.name)
      .Int("seed", static_cast<int64_t>(seed))
      .Num("seconds", seconds)
      .Bool("tiny", tiny)
      .Int("reps", workload.reps)
      .Raw("executor", JsonObject()
                           .Int("threads", workload.executor.threads)
                           .Int("workers", workload.executor.workers)
                           .Int("fork_workers", workload.fork_workers)
                           .str())
      .Int("setup_end_ns", setup_end_ns)
      .Raw("build", JsonObject()
                        .Str("build_type", PERFBENCH_BUILD_TYPE)
                        .Str("compiler", __VERSION__)
                        .Str("isa", sose::simd::ActiveIsaName())
                        .Str("isa_source", sose::simd::KernelSelectionSourceName(
                                               sose::simd::ActiveSelectionSource()))
                        .str());
  if (flags.GetBool("setup-only", false)) {
    std::printf("%s\n", out.str().c_str());
    return 0;
  }
  out.Raw("searches_params", SearchParamsJson(workload));

  UntracedResult untraced = RunUntraced(workload, mixtures);
  std::vector<SearchOutcome>& outcomes = untraced.outcomes;
  for (SearchOutcome& outcome : outcomes) CheckOutcome(table, &outcome);

  if (!trace && workload.fork_workers > 0) {
    // The fork shard coordinator must reproduce the searches exactly: m*,
    // bracketing, and every probe's trial and failure counts.
    const Executor fork{1, workload.fork_workers};
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const SearchOutcome forked =
          RunSearch(workload.searches[i], mixtures[i], fork);
      if (outcomes[i].failure.empty() &&
          (!forked.error.empty() || forked.m_star != outcomes[i].m_star ||
           forked.bracketed != outcomes[i].bracketed ||
           forked.probes != outcomes[i].probes)) {
        outcomes[i].failure = "fork executor differs from serial";
      }
    }
  }

  if (trace) {
    SpanRecorder spans;
    LayerTotals totals;
    sose::metrics::ResetAll();
    const int64_t start = NowNs();
    std::vector<SearchOutcome> traced;
    for (size_t i = 0; i < workload.searches.size(); ++i) {
      traced.push_back(RunTracedSearch(workload, workload.searches[i],
                                       mixtures[i], &spans, &totals));
      CheckOutcome(table, &traced.back());
    }
    const double traced_total_s = static_cast<double>(NowNs() - start) * 1e-9;
    const sose::metrics::MetricsSnapshot counters = sose::metrics::Snapshot();
    std::vector<double> total_s;
    std::vector<double> self_s;
    spans.Totals(&total_s, &self_s);
    // The searches as traced: everything except the fork runs and the
    // replay, which are measurements on top of the search.
    const double traced_wall_s =
        traced_total_s - total_s[kForkRun] - total_s[kReplay];
    double tail_pct = 0.0;
    out.Raw("per_layer",
            PerLayerJson(workload, totals, spans, untraced.wall_total_s,
                         traced_wall_s, counters, &tail_pct))
        .Num("probe_tail_percentile", tail_pct)
        .Int("replayed_trials", totals.replayed)
        .Int("mismatched_probes", totals.mismatched_probes)
        .Num("untraced_wall_s", untraced.wall_total_s)
        .Num("traced_wall_s", traced_wall_s)
        .Raw("spans", SpanTotalsJson(spans));
    if (!spans_path.empty() && !spans.WriteBinary(spans_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
      return 2;
    }
    outcomes = std::move(traced);
  } else {
    std::vector<double> search_ms;
    int64_t trials = 0;
    for (const SearchOutcome& outcome : outcomes) {
      search_ms.push_back(outcome.seconds * 1e3);
      trials += outcome.Trials();
    }
    // Repetitions times the median repetition, so a burst of load from
    // outside the benchmark during one repetition does not move the figure.
    const double reps = static_cast<double>(workload.reps);
    out.Num("wall_s", reps * Median(untraced.rep_wall_s))
        .Num("cpu_s", reps * Median(untraced.rep_cpu_s))
        .Num("wall_total_s", untraced.wall_total_s)
        .Raw("rep_wall_s", DoublesJson(untraced.rep_wall_s))
        .Raw("rep_cpu_s", DoublesJson(untraced.rep_cpu_s))
        .Num("peak_rss_mb", untraced.peak_rss_mb)
        .Int("trials", trials)
        .Num("mstar_p50_ms", Median(search_ms));
  }
  int64_t failed = 0;
  for (const SearchOutcome& outcome : outcomes) {
    failed += outcome.failure.empty() ? 0 : 1;
  }
  out.Int("attempted", static_cast<int64_t>(outcomes.size()))
      .Int("failed", failed)
      .Raw("outcomes", OutcomesJson(outcomes));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
