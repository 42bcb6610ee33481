#include "e2ebench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/core/trace.h"
#include "src/kernel/syscall_abi.h"
#include "src/net/netd.h"
#include "src/store/disk_model.h"
#include "src/store/single_level_store.h"

namespace e2e {

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return CPU_COUNT(&set);
}

bool PinToCurrentCpu() {
  int cpu = sched_getcpu();
  if (cpu < 0) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

const char* SpanNameStr(uint16_t name) {
  static constexpr const char* kNames[] = {
      "op",
      "unixlib.Lookup",
      "unixlib.ReadAt",
      "unixlib.WriteAt",
      "unixlib.Create",
      "unixlib.Unlink",
      "unixlib.ReadDir",
      "unixlib.SyncFile",
      "unixlib.SyncEverything",
      "store.Recover",
      "unixlib.Spawn",
      "net.Connect",
      "net.ReplyWait",
      "net.CloseSocket",
      "auth.Login",
      "apps.UserStore::Get",
      "apps.UserStore::Put",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) == static_cast<size_t>(SpanName::kCount));
  return name < static_cast<uint16_t>(SpanName::kCount) ? kNames[name] : "unknown";
}

// ---- counters ------------------------------------------------------------------

namespace {

size_t KindIndex(const char* name) {
  for (size_t k = 0; k < histar::kNumSyscallKinds; ++k) {
    if (std::strcmp(histar::SyscallKindName(k), name) == 0) {
      return k;
    }
  }
  return histar::kNumSyscallKinds;
}

// Kinds whose recorded duration is waiting or a gate body's nested calls.
bool WaitsOrNests(size_t kind) {
  static const size_t kinds[] = {KindIndex("futex_wait"), KindIndex("net_wait"),
                                 KindIndex("ring_wait"), KindIndex("gate_invoke")};
  return std::find(std::begin(kinds), std::end(kinds), kind) != std::end(kinds);
}

}  // namespace

Counters Counters::Read(const CounterSources& src) {
  Counters c;
  if (src.kernel != nullptr) {
    c.syscalls = static_cast<double>(src.kernel->syscall_count());
    c.table_locks = static_cast<double>(src.kernel->object_table().lock_acquisitions());
    histar::LabelRegistry& reg = src.kernel->label_registry();
    c.registry_hits = static_cast<double>(reg.hits());
    c.registry_misses = static_cast<double>(reg.misses());
    c.registry_locks = static_cast<double>(reg.lock_acquisitions());
  }
  static const size_t gate_kind = KindIndex("gate_invoke");
  for (size_t k = 0; k < histar::kNumSyscallKinds; ++k) {
    uint64_t buckets[histar::trace::kHistBuckets] = {};
    histar::trace::SumSyscallHist(static_cast<uint16_t>(k), buckets);
    const bool timed = !WaitsOrNests(k);
    for (size_t b = 0; b < histar::trace::kHistBuckets; ++b) {
      // Bucket b holds [2^b, 2^(b+1)) ns; bucket 0 holds [0, 2).
      double mid = b == 0 ? 1.0 : 1.5 * static_cast<double>(uint64_t{1} << b);
      if (timed) {
        c.syscall_ns_est += static_cast<double>(buckets[b]) * mid;
      }
      if (k == gate_kind) {
        c.gate_calls += static_cast<double>(buckets[b]);
      }
    }
  }
  if (src.disk != nullptr) {
    c.disk_read_ops = static_cast<double>(src.disk->read_ops());
    c.disk_write_ops = static_cast<double>(src.disk->write_ops());
    c.disk_bytes_written = static_cast<double>(src.disk->bytes_written());
    c.disk_seeks = static_cast<double>(src.disk->seek_ops());
    c.disk_sim_ns = static_cast<double>(src.disk->sim_time_ns());
  }
  if (src.store != nullptr) {
    c.log_records = static_cast<double>(src.store->log_records());
    c.log_applies = static_cast<double>(src.store->log_applies());
    c.chain_folds = static_cast<double>(src.store->chain_folds());
  }
  for (histar::NetDaemon* n : {src.net_a, src.net_b}) {
    if (n != nullptr) {
      c.frames += static_cast<double>(n->frames_sent() + n->frames_received());
    }
  }
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters d;
  d.syscalls = syscalls - b.syscalls;
  d.table_locks = table_locks - b.table_locks;
  d.registry_hits = registry_hits - b.registry_hits;
  d.registry_misses = registry_misses - b.registry_misses;
  d.registry_locks = registry_locks - b.registry_locks;
  d.gate_calls = gate_calls - b.gate_calls;
  d.syscall_ns_est = syscall_ns_est - b.syscall_ns_est;
  d.disk_read_ops = disk_read_ops - b.disk_read_ops;
  d.disk_write_ops = disk_write_ops - b.disk_write_ops;
  d.disk_bytes_written = disk_bytes_written - b.disk_bytes_written;
  d.disk_seeks = disk_seeks - b.disk_seeks;
  d.disk_sim_ns = disk_sim_ns - b.disk_sim_ns;
  d.log_records = log_records - b.log_records;
  d.log_applies = log_applies - b.log_applies;
  d.chain_folds = chain_folds - b.chain_folds;
  d.frames = frames - b.frames;
  return d;
}

void SetLockAccounting(histar::Kernel* kernel, bool on) {
  kernel->object_table().set_lock_accounting(on);
  kernel->label_registry().set_lock_accounting(on);
}

void AddLayerMetrics(Report* r, const LayerFigures& f) {
  const Counters& d = f.delta;
  double n = f.ops > 0 ? f.ops : 1;
  auto span_us = [&f](SpanName s) { return f.spans.median_us[static_cast<size_t>(s)]; };
  r->Add("unixlib.lookup_us", span_us(SpanName::kLookup), "us");
  r->Add("unixlib.syscalls_per_lookup", f.spans.syscalls_per_lookup, "count");
  r->Add("unixlib.read_us", span_us(SpanName::kReadAt), "us");
  r->Add("unixlib.write_us", span_us(SpanName::kWriteAt), "us");
  r->Add("unixlib.create_us", span_us(SpanName::kCreate), "us");
  r->Add("unixlib.unlink_us", span_us(SpanName::kUnlink), "us");
  r->Add("unixlib.spawn_us", span_us(SpanName::kSpawn), "us");
  r->Add("kernel.syscalls_per_op", d.syscalls / n, "count");
  r->Add("kernel.table_locks_per_op", d.table_locks / n, "count");
  r->Add("kernel.gate_calls_per_op", d.gate_calls / n, "count");
  r->Add("kernel.syscall_us_per_op", d.syscall_ns_est / 1000.0 / n, "us");
  double checks = d.registry_hits + d.registry_misses;
  r->Add("core.label_checks_per_op", checks / n, "count");
  r->Add("core.memo_hit_ratio", checks > 0 ? d.registry_hits / checks : 0, "ratio");
  r->Add("core.registry_locks_per_op", d.registry_locks / n, "count");
  r->Add("store.fsync_us", span_us(SpanName::kSyncFile), "us");
  r->Add("store.checkpoint_us", span_us(SpanName::kSyncEverything), "us");
  r->Add("store.log_records", d.log_records, "count");
  r->Add("store.log_applies", d.log_applies, "count");
  r->Add("store.chain_folds", d.chain_folds, "count");
  r->Add("store.section_bytes", f.section_bytes, "bytes");
  r->Add("store.recover_us", span_us(SpanName::kRecover), "us");
  r->Add("disk.write_ops", d.disk_write_ops, "count");
  r->Add("disk.read_ops", d.disk_read_ops, "count");
  r->Add("disk.seeks", d.disk_seeks, "count");
  r->Add("disk.bytes_written", d.disk_bytes_written, "bytes");
  r->Add("disk.restore_seeks", f.restore_seeks, "count");
  r->Add("net.connect_us", span_us(SpanName::kConnect), "us");
  r->Add("net.connect_refused", f.connect_refused, "count");
  r->Add("net.reply_wait_us", span_us(SpanName::kReplyWait), "us");
  r->Add("net.frames_per_op", d.frames / n, "count");
  r->Add("auth.login_us", span_us(SpanName::kLogin), "us");
  r->Add("apps.store_get_us", span_us(SpanName::kStoreGet), "us");
  r->Add("apps.store_put_us", span_us(SpanName::kStorePut), "us");
  r->Add("bench.op_self_us", f.spans.op_self_us, "us");
  r->Add("trace_overhead", f.trace_overhead, "ratio");
  r->Add("fail_ratio", f.fail_ratio, "ratio");
  r->Add("durable_p99_ms", f.durable_p99_ms, "ms");
  r->Add("sim_disk_s", f.sim_disk_s, "s");
  r->Add("write_amp", f.write_amp, "ratio");
  r->Add("restore_s", f.restore_s, "s");
}

// ---- report --------------------------------------------------------------------

void Report::Mismatch(const std::string& what) {
  ++mismatches_;
  if (mismatches_ <= 5) {
    std::fprintf(stderr, "e2ebench: wrong answer: %s\n", what.c_str());
  }
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& line : info_) {
    std::printf("# %s\n", line.c_str());
  }
  for (const Metric& m : extras_) {
    std::printf("extra  %s = %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("metric %s = %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

LatencySummary Summarize(std::vector<double> lat, double fixed_tail_pct) {
  std::sort(lat.begin(), lat.end());
  LatencySummary s;
  s.samples = lat.size();
  s.p50 = Percentile(lat, 50);
  // The workload's percentile is fixed so runs compare; a sample too small
  // to leave 10 beyond it falls back to the rule's highest valid one.
  s.tail_pct = std::min(fixed_tail_pct, TailPercentile(lat.size()));
  s.tail = Percentile(lat, s.tail_pct);
  return s;
}

bool RepeatSetup(int repeats, const std::function<bool()>& boot) {
  cpu_set_t all;
  CPU_ZERO(&all);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(all), &all) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) {
        cpus.push_back(c);
      }
    }
  }
  for (int i = 0; i < repeats; ++i) {
    const bool pin = i + 1 < repeats && !cpus.empty();
    if (pin) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<size_t>(i) % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const bool ok = boot();
    if (pin) {
      sched_setaffinity(0, sizeof(all), &all);
    }
    if (!ok) {
      return false;
    }
  }
  return true;
}

void AddEndToEnd(Report* r, double setup_s, PhaseOutcome p, double fixed_tail_pct) {
  LatencySummary lat = Summarize(std::move(p.lat_us), fixed_tail_pct);
  double attempted = p.attempted > 0 ? static_cast<double>(p.attempted) : 1;
  r->Add("setup_s", setup_s, "s");
  r->Add("ops_per_s", p.ops_per_s(), "1/s");
  r->Add("lat_tail_us", lat.tail, "us");
  r->Add("rss_mb", PeakRssMb(), "MB");
  r->Extra("lat_p50_us", lat.p50, "us");
  r->Extra("cpu_us_per_op", p.cpu_seconds * 1e6 / attempted, "us");
  r->Extra("fail_ratio", p.fail_ratio(), "ratio");
  r->Extra("lat_tail_percentile", lat.tail_pct, "pct");
  r->Extra("lat_samples", static_cast<double>(lat.samples), "count");
  r->Extra("timed_s", p.seconds, "s");
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}

SpanDigest DigestSpans(const std::vector<const SpanLog*>& logs, const std::string& out_path) {
  const size_t kinds = static_cast<size_t>(SpanName::kCount);
  std::vector<std::vector<double>> dur(kinds);
  std::vector<double> op_self;
  double lookup_sys = 0;
  double lookups_counted = 0;
  std::ofstream out;
  if (!out_path.empty()) {
    out.open(out_path);
    out << "thread\top\tname\tparent\tstart_ns\tend_ns\tself_ns\tsyscalls\tfailed\n";
  }
  for (size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t]->spans();
    std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (!s.failed) {
        dur[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
      }
      if (s.name == static_cast<uint16_t>(SpanName::kOp)) {
        op_self.push_back(static_cast<double>(self[i]) / 1000.0);
      }
      if (s.name == static_cast<uint16_t>(SpanName::kLookup) && s.syscalls != kNoCount) {
        lookup_sys += s.syscalls;
        lookups_counted += 1;
      }
      if (out.is_open() && i < kSpansWrittenPerLog) {
        out << t << '\t' << s.op << '\t' << SpanNameStr(s.name) << '\t' << s.parent << '\t'
            << s.start_ns << '\t' << s.end_ns << '\t' << self[i] << '\t'
            << (s.syscalls == kNoCount ? -1 : static_cast<int64_t>(s.syscalls)) << '\t'
            << s.failed << '\n';
      }
    }
  }
  SpanDigest d;
  d.median_us.resize(kinds);
  for (size_t k = 0; k < kinds; ++k) {
    d.median_us[k] = Median(dur[k]);
  }
  d.syscalls_per_lookup = lookups_counted > 0 ? lookup_sys / lookups_counted : 0;
  d.op_self_us = Median(op_self);
  return d;
}

}  // namespace e2e

// ---- entry point -----------------------------------------------------------------

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload web|fs-durable|tenants --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      Usage();
      return 2;
    }
  }
  if (!(opt.seconds > 0 && opt.seconds <= 3600)) {
    Usage();
    return 2;
  }
  if (opt.workload == "web") {
    return e2e::RunWeb(opt);
  }
  if (opt.workload == "fs-durable") {
    return e2e::RunFsDurable(opt);
  }
  if (opt.workload == "tenants") {
    return e2e::RunTenants(opt);
  }
  Usage();
  return 2;
}
