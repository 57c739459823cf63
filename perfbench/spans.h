#ifndef SOSE_PERFBENCH_SPANS_H_
#define SOSE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic_ns reads, so the launcher can time process set-up).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names of the traced run. Nesting: search → probe → {estimator,
/// fork_run, replay}, replay → trial, and trial → the stage spans after it.
enum SpanName : int32_t {
  kSearch,
  kProbe,
  kEstimator,   ///< RunTrials on the workload's executor (drives the search)
  kForkRun,     ///< RunTrials on the fork shard coordinator
  kReplay,      ///< serial RunTrials over the stage-by-stage replay
  kTrial,       ///< one replayed trial
  kSketchCreate,
  kSketchColumns,
  kInstanceDraw,
  kDistortion,
  kLinalgPrep,  ///< Gram(ApplyBatch(U)), the eigensolve's input
  kLinalgEigen,
  kNumSpanNames,
};

const char* SpanNameString(int32_t name);

/// Single-threaded in-memory span store. Spans are appended when opened and
/// closed in LIFO order; nothing is written until WriteBinary at exit.
///
/// Records live in fixed-size anonymous mappings marked MADV_DONTFORK: a
/// traced run holds millions of spans, and copying their page tables into
/// every forked shard worker would inflate the fork executor's cost.
class SpanRecorder {
 public:
  struct Record {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< index of the enclosing span, -1 for roots
    int32_t name = 0;
  };

  SpanRecorder() = default;
  ~SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under `parent` (-1 for a root) and returns its index.
  int32_t Open(int32_t name, int32_t parent) {
    if (size_ == chunks_.size() * kChunkRecords) AddChunk();
    At(size_) = Record{NowNs(), 0, parent, name};
    return static_cast<int32_t>(size_++);
  }
  /// Closes span `index` and returns its duration in nanoseconds.
  int64_t Close(int32_t index) {
    Record& record = At(static_cast<size_t>(index));
    record.end_ns = NowNs();
    return record.end_ns - record.start_ns;
  }

  /// Total duration and self time (duration minus the time direct children
  /// cover) per span name, in seconds.
  void Totals(std::vector<double>* total_s, std::vector<double>* self_s) const;

  /// Writes "perfbench-spans-v1 <count> <name0>,<name1>,...\n" followed by
  /// `count` packed Records (native byte order). Returns false on I/O error.
  bool WriteBinary(const std::string& path) const;

 private:
  static constexpr size_t kChunkRecords = size_t{1} << 16;

  Record& At(size_t i) { return chunks_[i / kChunkRecords][i % kChunkRecords]; }
  const Record& At(size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  void AddChunk();

  std::vector<Record*> chunks_;
  size_t size_ = 0;
};

}  // namespace perfbench

#endif  // SOSE_PERFBENCH_SPANS_H_
