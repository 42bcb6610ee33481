// Order statistics and span arithmetic for the end-to-end benchmark.
//
// Header-only so the self-test (selftest.cc) pins exactly the code the
// workloads use.
#ifndef E2EBENCH_STATS_H_
#define E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace e2e {

// 1-based nearest rank of the p-th percentile in n samples, ceil(p/100 * n),
// computed in integer tenths of a percent so that 99.9% of 10,000 is
// exactly rank 9,990 (floating point would round it up to 9,991).
inline uint64_t NearestRank(uint64_t n, double p) {
  uint64_t tenths = static_cast<uint64_t>(std::llround(p * 10));
  return (tenths * n + 999) / 1000;
}

// Nearest-rank percentile of an ascending-sorted sample. Returns 0 for an
// empty sample.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  uint64_t rank = NearestRank(sorted.size(), p);
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Samples strictly above the nearest-rank p-th percentile position.
inline uint64_t SamplesBeyond(uint64_t n, double p) {
  uint64_t rank = NearestRank(n, p);
  return n > rank ? n - rank : 0;
}

// The tail percentiles a workload may report, highest first.
inline constexpr double kTailCandidates[] = {99.9, 99.0, 90.0, 50.0};

// The highest candidate percentile with at least 10 samples beyond it
// (50 when even the median has fewer — the sample is then too small for a
// tail at all, and the caller reports the count it had).
inline double TailPercentile(uint64_t n) {
  for (double p : kTailCandidates) {
    if (SamplesBeyond(n, p) >= 10) {
      return p;
    }
  }
  return 50.0;
}

// One traced call. `parent` is 1 + the index of the enclosing span in the
// same log (0 for a root); `op` is the per-operation id shared by every
// span of one operation.
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t op = 0;
  uint32_t parent = 0;
  uint16_t name = 0;
  bool failed = false;  // the traced call returned an error
  // Calling kernel thread's syscall-count delta across the span, or
  // kNoCount when the span did not read the counter.
  uint32_t syscalls = 0;
};
inline constexpr uint32_t kNoCount = ~uint32_t{0};

// Self time of every span in one log: its duration minus the part of its
// interval covered by its direct children (child intervals clipped to the
// parent, overlaps counted once).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && spans[i].parent <= spans.size()) {
      children[spans[i].parent - 1].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) {
      uint64_t lo = std::max(spans[c].start_ns, s.start_ns);
      uint64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) {
        iv.emplace_back(lo, hi);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) {
        covered += cur_hi - cur_lo;
      }
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) {
      covered += cur_hi - cur_lo;
    }
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

}  // namespace e2e

#endif  // E2EBENCH_STATS_H_
