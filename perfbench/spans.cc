#include "spans.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <new>

namespace perfbench {

const char* SpanNameString(int32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "search",        "probe",          "estimator",      "fork_run",
      "replay",        "trial",          "sketch.create",  "sketch.columns",
      "instance.draw", "distortion",     "linalg.prep",    "linalg.eigen"};
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "?";
}

SpanRecorder::~SpanRecorder() {
  for (Record* chunk : chunks_) munmap(chunk, kChunkRecords * sizeof(Record));
}

void SpanRecorder::AddChunk() {
  const size_t bytes = kChunkRecords * sizeof(Record);
  void* chunk = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (chunk == MAP_FAILED) throw std::bad_alloc();
  // Best effort: without it forks only get slower.
  (void)madvise(chunk, bytes, MADV_DONTFORK);
  chunks_.push_back(static_cast<Record*>(chunk));
}

void SpanRecorder::Totals(std::vector<double>* total_s,
                          std::vector<double>* self_s) const {
  std::vector<int64_t> total(kNumSpanNames, 0);
  std::vector<int64_t> self(kNumSpanNames, 0);
  for (size_t i = 0; i < size_; ++i) {
    const Record& record = At(i);
    const int64_t duration = record.end_ns - record.start_ns;
    total[static_cast<size_t>(record.name)] += duration;
    self[static_cast<size_t>(record.name)] += duration;
    if (record.parent >= 0) {
      self[static_cast<size_t>(At(static_cast<size_t>(record.parent)).name)] -=
          duration;
    }
  }
  total_s->assign(kNumSpanNames, 0.0);
  self_s->assign(kNumSpanNames, 0.0);
  for (size_t i = 0; i < total.size(); ++i) {
    (*total_s)[i] = static_cast<double>(total[i]) * 1e-9;
    (*self_s)[i] = static_cast<double>(self[i]) * 1e-9;
  }
}

bool SpanRecorder::WriteBinary(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::string header =
      "perfbench-spans-v1 " + std::to_string(size_) + " ";
  for (int32_t name = 0; name < kNumSpanNames; ++name) {
    if (name > 0) header += ",";
    header += SpanNameString(name);
  }
  header += "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), file) == header.size();
  for (size_t c = 0; ok && c < chunks_.size(); ++c) {
    const size_t count = std::min(kChunkRecords, size_ - c * kChunkRecords);
    ok = std::fwrite(chunks_[c], sizeof(Record), count, file) == count;
  }
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench
