// Shared scaffolding for the end-to-end benchmark: options, clocks, the
// span log of a traced run, counter snapshots, and the report printer.
//
// The benchmark drives the system only through the public functions of
// unixlib, apps, auth, net, kernel, store and core. Spans are recorded by
// this directory's code around each such call; counters are the ones those
// modules already expose, read before and after.
#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "e2ebench/stats.h"
#include "src/kernel/kernel.h"

namespace histar {
class DiskModel;
class NetDaemon;
class SingleLevelStore;
}  // namespace histar

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // where a traced run writes its spans ("" = nowhere)
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Process user+sys CPU seconds (getrusage).
double CpuSeconds();
// Peak resident set size of the process, MB.
double PeakRssMb();
// CPUs this process may run on (what `nproc` prints).
int Nproc();
// Pins the calling thread, and so every thread it starts afterwards, to
// the CPU it is running on. Returns false if the affinity call fails.
bool PinToCurrentCpu();

// A seeded generator whose draws do not depend on the standard library's
// distribution implementations, so one seed gives one input sequence.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

// ---- spans -------------------------------------------------------------------

enum class SpanName : uint16_t {
  kOp = 0,           // one workload operation (root)
  kLookup,           // FileSystem::Lookup
  kReadAt,           // FileSystem::ReadAt
  kWriteAt,          // FileSystem::WriteAt
  kCreate,           // FileSystem::Create
  kUnlink,           // FileSystem::Unlink
  kReadDir,          // FileSystem::ReadDir
  kSyncFile,         // FileSystem::SyncFile
  kSyncEverything,   // FileSystem::SyncEverything
  kRecover,          // SingleLevelStore::Recover
  kSpawn,            // ProcessManager::Spawn .. ProcHandle::Wait
  kConnect,          // NetDaemon::Connect
  kReplyWait,        // NetDaemon::Send .. first response byte
  kClose,            // NetDaemon::CloseSocket
  kLogin,            // AuthSystem::Login
  kStoreGet,         // UserStore::Get
  kStorePut,         // UserStore::Put
  kCount,
};
const char* SpanNameStr(uint16_t name);

// One host thread's span log. Not shared: every thread that records owns
// its own log, and logs are merged only after the threads are joined.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  // Opens a span nested in the innermost open one; returns its handle
  // (0 when tracing is off).
  uint32_t Begin(SpanName name, uint64_t op) {
    if (!enabled_) {
      return 0;
    }
    Span s;
    s.name = static_cast<uint16_t>(name);
    s.op = static_cast<uint32_t>(op);
    s.parent = open_.empty() ? 0 : open_.back();
    s.syscalls = kNoCount;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<uint32_t>(spans_.size()));
    return open_.back();
  }
  void End(uint32_t handle, uint64_t end_ns, uint32_t syscalls = kNoCount,
           bool failed = false) {
    if (handle == 0) {
      return;
    }
    Span& s = spans_[handle - 1];
    s.end_ns = end_ns;
    s.syscalls = syscalls;
    s.failed = failed;
    if (!open_.empty() && open_.back() == handle) {
      open_.pop_back();
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

// RAII span. When `count_thread` is a kernel thread id, the span also
// records that thread's syscall-count delta, read just outside the span's
// clock reads so the counter's own cost lands in the parent's self time.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name, uint64_t op, histar::Kernel* kernel = nullptr,
             histar::ObjectId count_thread = histar::kInvalidObject)
      : log_(log), kernel_(log->enabled() ? kernel : nullptr), thread_(count_thread) {
    if (kernel_ != nullptr && thread_ != histar::kInvalidObject) {
      sys0_ = kernel_->thread_syscall_count(thread_);
    }
    handle_ = log_->Begin(name, op);
  }
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Marks the traced call as failed: its duration is kept out of the
  // per-layer medians, which describe calls that did their work.
  void SetFailed() { failed_ = true; }

  void End() {
    if (handle_ == 0) {
      return;
    }
    uint64_t end_ns = NowNs();
    uint32_t n = kNoCount;
    if (kernel_ != nullptr && thread_ != histar::kInvalidObject) {
      n = static_cast<uint32_t>(kernel_->thread_syscall_count(thread_) - sys0_);
    }
    log_->End(handle_, end_ns, n, failed_);
    handle_ = 0;
  }

 private:
  SpanLog* log_;
  histar::Kernel* kernel_;
  histar::ObjectId thread_;
  uint64_t sys0_ = 0;
  uint32_t handle_ = 0;
  bool failed_ = false;
};

// ---- counters ------------------------------------------------------------------

// What the counters are read from; any pointer may be null.
struct CounterSources {
  histar::Kernel* kernel = nullptr;
  histar::DiskModel* disk = nullptr;
  histar::SingleLevelStore* store = nullptr;
  histar::NetDaemon* net_a = nullptr;
  histar::NetDaemon* net_b = nullptr;
};

// One reading of every counter the modules expose. The syscall histograms
// and registry stats are process-wide; the rest belong to the sources.
struct Counters {
  double syscalls = 0;
  double table_locks = 0;
  double registry_hits = 0;
  double registry_misses = 0;
  double registry_locks = 0;
  double gate_calls = 0;  // gate_invoke histogram count
  // Time inside syscalls, from the histogram buckets summed at their
  // midpoints. Waits (futex, net, ring) and gate_invoke, whose duration
  // spans the gate body's own syscalls, are left out.
  double syscall_ns_est = 0;
  double disk_read_ops = 0;
  double disk_write_ops = 0;
  double disk_bytes_written = 0;
  double disk_seeks = 0;
  double disk_sim_ns = 0;
  double log_records = 0;
  double log_applies = 0;
  double chain_folds = 0;
  double frames = 0;  // sent + received, both stacks

  static Counters Read(const CounterSources& src);
  Counters Minus(const Counters& base) const;
};

// Lock accounting adds a shared atomic to every table and registry lock,
// so only the traced run turns it on.
void SetLockAccounting(histar::Kernel* kernel, bool on);

// ---- report --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Collects metrics and informational lines; Print writes the lines, one
// "metric <name> = <value> <unit>" line per metric, and finally the JSON
// result object as the last line of standard output.
class Report {
 public:
  void Info(const std::string& line) { info_.push_back(line); }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  // A figure printed beside the metrics but kept out of the JSON object
  // (it is not one of the run's declared metrics).
  void Extra(const std::string& name, double value, const std::string& unit) {
    extras_.push_back(Metric{name, value, unit});
  }
  // Records a wrong answer (counted in `failed`, fails the verdict).
  void Mismatch(const std::string& what);
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;
  uint64_t mismatches() const { return mismatches_; }

 private:
  std::vector<std::string> info_;
  std::vector<Metric> metrics_;
  std::vector<Metric> extras_;
  uint64_t mismatches_ = 0;
};

// One timed phase as the client saw it. Where a workload runs on the
// latency-modeled disk, time is host time plus the simulated disk time the
// operations were charged (the convention of the Fig. 12 I/O rows): that
// is how long a user of the modeled drive would wait.
struct PhaseOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;       // errors, refusals and wrong answers
  double seconds = 0;        // host wall time of the phase
  double sim_seconds = 0;    // simulated disk time charged in the phase
  double cpu_seconds = 0;    // process user+sys over the phase
  std::vector<double> lat_us;  // correct operations only, host + simulated
  Counters delta;

  uint64_t ok() const { return attempted - failed; }
  double ops_per_s() const {
    double t = seconds + sim_seconds;
    return t > 0 ? static_cast<double>(ok()) / t : 0;
  }
  double host_ops_per_s() const {
    return seconds > 0 ? static_cast<double>(ok()) / seconds : 0;
  }
  double fail_ratio() const {
    return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;
  }
};

// Adds the declared end-to-end metrics (setup_s, ops_per_s, lat_tail_us,
// rss_mb) and, as extra lines, the other end-to-end figures:
// lat_p50_us and cpu_us_per_op, which on a shared host drift with its
// cache contention beyond any bound a gate could hold for fs-durable, plus
// fail_ratio, the tail percentile used and the sample count.
// Takes the phase by value so a caller done with it can move its samples
// in rather than copy them (the copy would show in rss_mb).
void AddEndToEnd(Report* r, double setup_s, PhaseOutcome p, double fixed_tail_pct);

// Latency summary of one phase: p50 and the workload's fixed tail
// percentile over correct operations, plus the sample count.
struct LatencySummary {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  uint64_t samples = 0;
};
LatencySummary Summarize(std::vector<double> lat, double fixed_tail_pct);

// Median of a small sample (set-up repetitions).
double Median(std::vector<double> v);

// Calls boot() `repeats` times, stopping at the first failure. Every call
// but the last runs pinned to one CPU of the process's affinity mask, taken
// in turn: on a shared host the CPUs run at different speeds (up to 1.5x
// apart, and which ones are slow changes), so a median over boots on one
// CPU would hinge on where the scheduler put the thread. The last call
// boots the world that is measured, under the process's own mask, which
// every thread it starts inherits.
bool RepeatSetup(int repeats, const std::function<bool()>& boot);

// Per-layer metrics from a traced phase's span logs: the median duration
// of each named span, syscalls per Lookup, and the self time of op spans.
// When `out_path` is non-empty, writes the first kSpansWrittenPerLog spans
// of every log there as tab-separated rows.
inline constexpr size_t kSpansWrittenPerLog = 50'000;
struct SpanDigest {
  std::vector<double> median_us;  // by SpanName, over calls that succeeded
  double syscalls_per_lookup = 0;
  double op_self_us = 0;          // median self time of op spans
};
SpanDigest DigestSpans(const std::vector<const SpanLog*>& logs, const std::string& out_path);

// Everything the traced run reports. Figures a workload does not exercise
// stay 0, so every run prints the same metric set.
struct LayerFigures {
  SpanDigest spans;
  Counters delta;  // counter deltas over the traced phase
  double ops = 0;  // operations attempted in the traced phase
  double trace_overhead = 0;  // traced / untraced host-time ops per second
  double section_bytes = 0;   // checkpoint section bytes committed
  double restore_seeks = 0;   // disk seeks during Recover
  double connect_refused = 0;  // Connect calls refused
  // The workload's own end-to-end figures (from the untraced phase).
  double fail_ratio = 0;
  double durable_p99_ms = 0;
  double sim_disk_s = 0;
  double write_amp = 0;
  double restore_s = 0;
};
void AddLayerMetrics(Report* r, const LayerFigures& f);

// Workload entry points. Each returns the process exit code.
int RunWeb(const Options& opt);
int RunFsDurable(const Options& opt);
int RunTenants(const Options& opt);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_H_
