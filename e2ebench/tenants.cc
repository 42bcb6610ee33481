// tenants: min(4, nproc) host threads in one process, each driving its own
// kernel thread that owns its own secrecy category.
//
// Tenant i has a 64-file directory whose files are labeled {c_i 3, 1};
// a shared public directory holds 64 files labeled {1}. Seeded mix per
// tenant: 60% reads of its own files, 20% reads of public files, 15%
// overwrites of its own files, and 5% reads of another tenant's file,
// which the kernel must deny (kLabelCheckFailed). Reads are checked
// against the version stamp of the last write. No store is attached and
// the directories are small, so time goes to label checks and to the
// object table and dispatch under contention.
//
// Needs at least two CPUs: on a smaller host the workload says so loudly
// and exits without a result rather than report a contended row that no
// contention produced.
#include <atomic>
#include <cstring>
#include <thread>

#include "e2ebench/harness.h"
#include "src/unixlib/unix.h"

namespace e2e {
namespace {

using histar::CategoryId;
using histar::Label;
using histar::Level;
using histar::ObjectId;
using histar::Result;
using histar::Status;

constexpr uint64_t kFileBytes = 1024;
constexpr uint64_t kFileQuota = histar::kObjectOverheadBytes + 4 * histar::kPageSize;
constexpr uint64_t kFilesPerDir = 64;
constexpr int kMaxTenants = 4;
constexpr int kSetupRepeats = 31;  // a boot takes milliseconds: take many
constexpr size_t kLatencyReserve = size_t{1} << 22;  // samples per tenant thread

std::string FileName(uint64_t i) { return "f" + std::to_string(i); }

void FillContent(uint64_t owner, uint64_t file, uint64_t version, uint8_t* buf) {
  for (uint64_t i = 0; i < kFileBytes / 8; ++i) {
    uint64_t w = ((owner << 48) ^ (file << 32) ^ version) ^ (i * 0x9e3779b97f4a7c15ULL);
    std::memcpy(buf + i * 8, &w, 8);
  }
}

struct Tenant {
  CategoryId cat = histar::kInvalidCategory;
  ObjectId thread = histar::kInvalidObject;
  ObjectId dir = histar::kInvalidObject;
  std::vector<uint64_t> versions;  // by file: owned by this tenant's host thread
};

struct TenantWorld {
  std::unique_ptr<histar::Kernel> kernel;
  std::unique_ptr<histar::UnixWorld> unix;
  ObjectId pub = histar::kInvalidObject;
  std::vector<Tenant> tenants;

  ~TenantWorld() { histar::CurrentThread::Set(histar::kInvalidObject); }
};

constexpr uint64_t kPublicOwner = 0xffff;

std::unique_ptr<TenantWorld> Boot(int n) {
  auto w = std::make_unique<TenantWorld>();
  w->kernel = std::make_unique<histar::Kernel>();
  w->unix = histar::UnixWorld::Boot(w->kernel.get());
  if (w->unix == nullptr) {
    return nullptr;
  }
  ObjectId init = w->unix->init_thread();
  histar::CurrentThread::Set(init);
  histar::FileSystem& fs = w->unix->fs();
  uint8_t buf[kFileBytes];
  auto populate = [&](ObjectId dir, const Label& label, uint64_t owner) {
    for (uint64_t f = 0; f < kFilesPerDir; ++f) {
      Result<ObjectId> file = fs.Create(init, dir, FileName(f), label, kFileQuota);
      FillContent(owner, f, 1, buf);
      if (!file.ok() ||
          fs.WriteAt(init, dir, file.value(), buf, 0, kFileBytes) != Status::kOk) {
        return false;
      }
    }
    return true;
  };
  Result<ObjectId> pub = fs.MakeDir(init, w->unix->fs_root(), "pub", Label(), 4 << 20);
  if (!pub.ok() || !populate(pub.value(), Label(), kPublicOwner)) {
    return nullptr;
  }
  w->pub = pub.value();
  for (int i = 0; i < n; ++i) {
    Tenant t;
    Result<CategoryId> c = w->kernel->sys_cat_create(init);
    if (!c.ok()) {
      return nullptr;
    }
    t.cat = c.value();
    t.thread = w->kernel->BootstrapThread(Label(Level::k1, {{t.cat, Level::kStar}}),
                                          Label(Level::k2, {{t.cat, Level::k3}}),
                                          "tenant" + std::to_string(i));
    Result<ObjectId> dir =
        fs.MakeDir(init, w->unix->fs_root(), "t" + std::to_string(i), Label(), 4 << 20);
    if (!dir.ok() ||
        !populate(dir.value(), Label(Level::k1, {{t.cat, Level::k3}}),
                  static_cast<uint64_t>(i))) {
      return nullptr;
    }
    t.dir = dir.value();
    t.versions.assign(kFilesPerDir, 1);
    w->tenants.push_back(std::move(t));
  }
  return w;
}

// What one tenant thread measured.
struct TenantResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t denied = 0;  // cross-tenant reads correctly refused
  std::vector<double> lat_us;
  std::vector<std::string> wrong;  // first few wrong answers
};

void TenantLoop(TenantWorld* w, int me, uint64_t seed, uint64_t deadline, SpanLog* log,
                const std::atomic<bool>* go, TenantResult* res) {
  Tenant& t = w->tenants[me];
  histar::CurrentThread::Set(t.thread);
  histar::FileSystem fs(w->kernel.get());
  Rng rng(seed * 0xD1B54A32D192ED03ULL + static_cast<uint64_t>(me) * 7919 + 3);
  const int n = static_cast<int>(w->tenants.size());
  uint8_t buf[kFileBytes];
  uint8_t want[kFileBytes];
  // Reserved, not touched: the sample vector never reallocates mid-run, so
  // peak RSS grows with the samples taken rather than in doubling steps.
  res->lat_us.reserve(kLatencyReserve);
  while (!go->load(std::memory_order_acquire)) {
  }
  auto wrong = [res](std::string what) {
    if (res->wrong.size() < 5) {
      res->wrong.push_back(std::move(what));
    }
  };
  for (uint64_t i = 1; NowNs() < deadline; ++i) {
    uint64_t r = rng.Below(100);
    uint64_t file = rng.Below(kFilesPerDir);
    int other = static_cast<int>((static_cast<uint64_t>(me) + 1 + rng.Below(n - 1)) % n);
    ObjectId dir = r < 60 ? t.dir : r < 80 ? w->pub : r < 95 ? t.dir : w->tenants[other].dir;
    uint64_t t0 = NowNs();
    bool ok = false;
    {
      ScopedSpan op(log, SpanName::kOp, i);
      Result<ObjectId> f = [&] {
        ScopedSpan s(log, SpanName::kLookup, i, w->kernel.get(), t.thread);
        return fs.Lookup(t.thread, dir, FileName(file));
      }();
      if (!f.ok()) {
        wrong("lookup of " + FileName(file) + ": " +
              std::string(histar::StatusName(f.status())));
      } else if (r >= 80 && r < 95) {
        FillContent(me, file, t.versions[file] + 1, buf);
        ScopedSpan s(log, SpanName::kWriteAt, i);
        Status st = fs.WriteAt(t.thread, dir, f.value(), buf, 0, kFileBytes);
        ok = st == Status::kOk;
        if (ok) {
          ++t.versions[file];
        } else {
          s.SetFailed();
          wrong("overwrite: " + std::string(histar::StatusName(st)));
        }
      } else {
        Result<uint64_t> got = [&] {
          ScopedSpan s(log, SpanName::kReadAt, i);
          Result<uint64_t> g = fs.ReadAt(t.thread, dir, f.value(), buf, 0, kFileBytes);
          if (!g.ok()) {
            s.SetFailed();
          }
          return g;
        }();
        if (r >= 95) {
          // Another tenant's secret file: the only right answer is a denial.
          ok = !got.ok() && got.status() == Status::kLabelCheckFailed;
          if (ok) {
            ++res->denied;
          } else {
            wrong("cross-tenant read answered " +
                  (got.ok() ? std::string("ok") : std::string(histar::StatusName(got.status()))));
          }
        } else {
          uint64_t owner = r < 60 ? static_cast<uint64_t>(me) : kPublicOwner;
          FillContent(owner, file, r < 60 ? t.versions[file] : 1, want);
          ok = got.ok() && got.value() == kFileBytes && std::memcmp(buf, want, kFileBytes) == 0;
          if (!ok) {
            wrong("read of " + FileName(file) + " returned stale or foreign bytes");
          }
        }
      }
    }
    uint64_t t1 = NowNs();
    ++res->attempted;
    if (!ok) {
      ++res->failed;
      continue;
    }
    res->lat_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
  }
  histar::CurrentThread::Set(histar::kInvalidObject);
}

struct TenantPhase {
  PhaseOutcome out;
  uint64_t denied = 0;
  std::vector<std::unique_ptr<SpanLog>> logs;
};

TenantPhase RunPhase(TenantWorld* w, Report* r, bool traced, uint64_t seed, double seconds) {
  TenantPhase ph;
  const int n = static_cast<int>(w->tenants.size());
  std::vector<TenantResult> res(n);
  for (int i = 0; i < n; ++i) {
    ph.logs.push_back(std::make_unique<SpanLog>(traced));
  }
  CounterSources src;
  src.kernel = w->kernel.get();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  uint64_t t_start = NowNs() + 20'000'000;  // let every thread reach the gate
  uint64_t deadline = t_start + static_cast<uint64_t>(seconds * 1e9);
  for (int i = 0; i < n; ++i) {
    threads.emplace_back(TenantLoop, w, i, seed, deadline, ph.logs[i].get(), &go, &res[i]);
  }
  while (NowNs() < t_start) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Counters c0 = Counters::Read(src);
  double cpu0 = CpuSeconds();
  uint64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) {
    th.join();
  }
  ph.out.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  ph.out.cpu_seconds = CpuSeconds() - cpu0;
  ph.out.delta = Counters::Read(src).Minus(c0);
  size_t samples = 0;
  for (const TenantResult& t : res) {
    samples += t.lat_us.size();
  }
  ph.out.lat_us.reserve(samples);
  for (TenantResult& t : res) {
    ph.out.attempted += t.attempted;
    ph.out.failed += t.failed;
    ph.denied += t.denied;
    ph.out.lat_us.insert(ph.out.lat_us.end(), t.lat_us.begin(), t.lat_us.end());
    std::vector<double>().swap(t.lat_us);
    for (const std::string& what : t.wrong) {
      r->Mismatch(what);
    }
  }
  return ph;
}

}  // namespace

int RunTenants(const Options& opt) {
  const int nproc = Nproc();
  const int n = std::min(kMaxTenants, nproc);
  if (nproc < 2) {
    std::string msg = "SKIPPED: tenants needs nproc >= 2 for a contended row; nproc=" +
                      std::to_string(nproc);
    std::printf("# %s\n", msg.c_str());
    std::fprintf(stderr, "e2ebench: %s\n", msg.c_str());
    return 3;
  }
  Report report;
  report.Info("workload=tenants seed=" + std::to_string(opt.seed) +
              " trace=" + std::to_string(opt.trace) + " nproc=" + std::to_string(nproc) +
              " threads=" + std::to_string(n) + " files_per_dir=" + std::to_string(kFilesPerDir));
  std::vector<double> setups;
  std::unique_ptr<TenantWorld> world;
  auto boot = [&]() -> bool {
    world.reset();
    uint64_t t0 = NowNs();
    world = Boot(n);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (world == nullptr) {
      std::fprintf(stderr, "e2ebench: tenants boot failed\n");
    }
    return world != nullptr;
  };
  if (!RepeatSetup(opt.trace ? 1 : kSetupRepeats, boot)) {
    return 1;
  }
  // Tenant threads bind their own kernel threads; the main thread binds none.
  histar::CurrentThread::Set(histar::kInvalidObject);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (!opt.trace) {
    TenantPhase ph = RunPhase(world.get(), &report, false, opt.seed, opt.seconds);
    attempted = ph.out.attempted;
    failed = ph.out.failed;
    AddEndToEnd(&report, Median(setups), std::move(ph.out), 99.0);
    report.Extra("cross_tenant_denied", static_cast<double>(ph.denied), "count");
  } else {
    TenantPhase plain = RunPhase(world.get(), &report, false, opt.seed, opt.seconds / 2);
    SetLockAccounting(world->kernel.get(), true);
    TenantPhase traced = RunPhase(world.get(), &report, true, opt.seed, opt.seconds / 2);
    SetLockAccounting(world->kernel.get(), false);
    LayerFigures f;
    std::vector<const SpanLog*> logs;
    for (const auto& l : traced.logs) {
      logs.push_back(l.get());
    }
    f.spans = DigestSpans(logs, opt.trace_out);
    f.delta = traced.out.delta;
    f.ops = static_cast<double>(traced.out.attempted);
    f.trace_overhead =
        plain.out.host_ops_per_s() > 0
            ? traced.out.host_ops_per_s() / plain.out.host_ops_per_s()
            : 0;
    f.fail_ratio = plain.out.fail_ratio();
    AddLayerMetrics(&report, f);
    attempted = plain.out.attempted + traced.out.attempted;
    failed = plain.out.failed + traced.out.failed;
  }
  report.Print(report.mismatches() == 0 && failed == 0, attempted, failed);
  world.reset();
  return 0;
}

}  // namespace e2e
