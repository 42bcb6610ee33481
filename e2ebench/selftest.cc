// Self-test of the benchmark's own arithmetic: the tail-percentile rule
// and the span self-time computation. Exits non-zero on the first failure.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "e2ebench/stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++failures;
  }
}

e2e::Span MakeSpan(uint64_t start, uint64_t end, uint32_t parent) {
  e2e::Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  Check(e2e::Percentile(v, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  Check(e2e::Percentile(v, 90) == 90, "p90 of 1..100 is 90");
  Check(e2e::Percentile(v, 99) == 99, "p99 of 1..100 is 99");
  Check(e2e::Percentile({}, 50) == 0, "empty sample reads 0");
  Check(e2e::Percentile({7}, 99.9) == 7, "one sample is every percentile");

  // The highest percentile with at least 10 samples beyond it.
  Check(e2e::TailPercentile(10000) == 99.9, "n=10000 -> p99.9 (10 beyond)");
  Check(e2e::TailPercentile(9999) == 99.0, "n=9999 -> p99 (p99.9 leaves 9)");
  Check(e2e::TailPercentile(1000) == 99.0, "n=1000 -> p99 (10 beyond)");
  Check(e2e::TailPercentile(999) == 90.0, "n=999 -> p90 (p99 leaves 9)");
  Check(e2e::TailPercentile(100) == 90.0, "n=100 -> p90 (10 beyond)");
  Check(e2e::TailPercentile(99) == 50.0, "n=99 -> p50 (p90 leaves 9)");
  Check(e2e::TailPercentile(5) == 50.0, "n=5 -> p50 fallback");
  Check(e2e::SamplesBeyond(10000, 99.9) == 10, "99.9% of 10000 leaves exactly 10");
  Check(e2e::SamplesBeyond(242, 90) == 24, "p90 of 242 leaves 24");
}

void TestSelfTime() {
  // Parent [0,100] with children [10,30], [20,50] (overlapping), [60,70],
  // and [90,120] (clipped to 90..100); a grandchild inside [10,30] does
  // not count against the parent.
  std::vector<e2e::Span> spans = {
      MakeSpan(0, 100, 0),   // 1: parent
      MakeSpan(10, 30, 1),   // 2
      MakeSpan(20, 50, 1),   // 3
      MakeSpan(60, 70, 1),   // 4
      MakeSpan(90, 120, 1),  // 5
      MakeSpan(12, 18, 2),   // 6: grandchild
      MakeSpan(200, 260, 0), // 7: a second root, no children
  };
  std::vector<uint64_t> self = e2e::SelfTimes(spans);
  Check(self[0] == 100 - 40 - 10 - 10, "parent self = duration minus covered union");
  Check(self[1] == 20 - 6, "child self excludes its own child");
  Check(self[2] == 30, "leaf self = duration");
  Check(self[4] == 30, "child past its parent keeps its own duration");
  Check(self[6] == 60, "root without children keeps its duration");
  // A child that covers its parent leaves no self time.
  std::vector<e2e::Span> covered = {MakeSpan(5, 10, 0), MakeSpan(0, 20, 1)};
  Check(e2e::SelfTimes(covered)[0] == 0, "fully covered parent has zero self time");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
