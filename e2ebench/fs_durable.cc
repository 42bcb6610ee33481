// fs-durable: Fig. 12 LFS-style churn of 1 kB files in one ~2,000-entry
// directory, on the latency-modeled disk with the default store engine,
// from one thread.
//
// Seeded mix per 1,000 operations: 500 read, 200 overwrite, 100 create,
// 100 unlink, 96 SyncFile, 2 ReadDir, 2 SyncEverything. Creates and
// unlinks swap roles at the edges of [1,900, 2,100] live files so the
// directory stays near 2,000 entries. Every read is checked against the
// version stamp of the last write to that file; every ReadDir against the
// model's live set. After the timed phase a final SyncEverything is
// followed by a recovery from the disk bytes alone (the durability
// oracle): the recovered directory must list exactly the live files and
// every file must read back its last acknowledged version.
//
// Operation latencies and ops_per_s count host time plus the simulated disk
// time each operation was charged (the Fig. 12 rows' convention); the
// host-only figures are printed beside them.
//
// Simulated-disk figures (sim_disk_s, write_amp, disk.*) are read over the
// first `WindowOps` operations, a count fixed by --seconds alone, so they
// repeat exactly for one seed; the timed phase itself runs for --seconds.
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "e2ebench/harness.h"
#include "src/store/disk_model.h"
#include "src/store/single_level_store.h"
#include "src/unixlib/unix.h"

namespace e2e {
namespace {

using histar::ObjectId;
using histar::Result;
using histar::Status;

constexpr uint64_t kFileBytes = 1024;
// Small files get a tight quota so ~2,000 of them fit a 64 MB directory.
constexpr uint64_t kFileQuota = histar::kObjectOverheadBytes + 4 * histar::kPageSize;
constexpr uint64_t kInitialFiles = 2000;
constexpr uint64_t kLiveLow = 1900;
constexpr uint64_t kLiveHigh = 2100;
constexpr int kSetupRepeats = 5;
// Operations per second of --seconds in the deterministic window.
constexpr double kWindowOpsPerSecond = 1500;

uint64_t WindowOps(double seconds) {
  return static_cast<uint64_t>(kWindowOpsPerSecond * seconds);
}

std::string FileName(uint64_t id) { return "f" + std::to_string(id); }

// The 1 kB image of version `version` of file `id`.
void FillContent(uint64_t id, uint64_t version, uint8_t* buf) {
  for (uint64_t i = 0; i < kFileBytes / 8; ++i) {
    uint64_t w = ((id << 32) | version) ^ (i * 0x9e3779b97f4a7c15ULL);
    std::memcpy(buf + i * 8, &w, 8);
  }
}

struct FsWorld {
  std::unique_ptr<histar::DiskModel> disk;
  std::unique_ptr<histar::SingleLevelStore> store;
  std::unique_ptr<histar::Kernel> kernel;
  std::unique_ptr<histar::UnixWorld> unix;
  ObjectId dir = histar::kInvalidObject;

  ObjectId init() const { return unix->init_thread(); }
  CounterSources sources() const {
    CounterSources s;
    s.kernel = kernel.get();
    s.disk = disk.get();
    s.store = store.get();
    return s;
  }
};

// The benchmark's model of the directory: every file ever created, and
// which are live with which version.
struct FsModel {
  struct File {
    uint64_t version = 0;
    bool live = false;
  };
  std::vector<File> files;   // by file id
  std::vector<uint64_t> live;  // ids of live files, unordered
  std::vector<size_t> slot;    // id -> index in `live`

  uint64_t Add() {
    uint64_t id = files.size();
    files.push_back(File{1, true});
    slot.push_back(live.size());
    live.push_back(id);
    return id;
  }
  void Remove(uint64_t id) {
    size_t at = slot[id];
    uint64_t last = live.back();
    live[at] = last;
    slot[last] = at;
    live.pop_back();
    files[id].live = false;
  }
};

// Boots a store-backed world and populates the directory, committing
// every 200 files so the disk image has the multi-epoch layout of a run.
std::unique_ptr<FsWorld> Boot(FsModel* model) {
  auto w = std::make_unique<FsWorld>();
  histar::DiskGeometry g;
  g.capacity_bytes = 2ULL << 30;
  g.store_data = true;  // recovery reads the bytes back
  w->disk = std::make_unique<histar::DiskModel>(g);
  w->store = std::make_unique<histar::SingleLevelStore>(w->disk.get());
  if (w->store->Format() != Status::kOk) {
    return nullptr;
  }
  w->kernel = std::make_unique<histar::Kernel>();
  w->kernel->AttachPersistTarget(w->store.get());
  w->unix = histar::UnixWorld::Boot(w->kernel.get());
  if (w->unix == nullptr) {
    return nullptr;
  }
  histar::CurrentThread::Set(w->init());
  histar::FileSystem& fs = w->unix->fs();
  Result<ObjectId> dir = fs.MakeDir(w->init(), w->unix->fs_root(), "lfs", histar::Label(),
                                    64 << 20);
  if (!dir.ok()) {
    return nullptr;
  }
  w->dir = dir.value();
  *model = FsModel();
  uint8_t buf[kFileBytes];
  for (uint64_t i = 0; i < kInitialFiles; ++i) {
    uint64_t id = model->Add();
    Result<ObjectId> f =
        fs.Create(w->init(), w->dir, FileName(id), histar::Label(), kFileQuota);
    FillContent(id, 1, buf);
    if (!f.ok() || fs.WriteAt(w->init(), w->dir, f.value(), buf, 0, kFileBytes) != Status::kOk) {
      return nullptr;
    }
    if ((i + 1) % 200 == 0 && fs.SyncEverything(w->init()) != Status::kOk) {
      return nullptr;
    }
  }
  return w;
}

enum class FsOp { kRead, kOverwrite, kCreate, kUnlink, kSyncFile, kReadDir, kSyncEverything };

FsOp PickOp(Rng* rng, const FsModel& m) {
  uint64_t r = rng->Below(1000);
  FsOp op = r < 500   ? FsOp::kRead
            : r < 700 ? FsOp::kOverwrite
            : r < 800 ? FsOp::kCreate
            : r < 900 ? FsOp::kUnlink
            : r < 996 ? FsOp::kSyncFile
            : r < 998 ? FsOp::kReadDir
                      : FsOp::kSyncEverything;
  if (op == FsOp::kCreate && m.live.size() >= kLiveHigh) {
    return FsOp::kUnlink;
  }
  if (op == FsOp::kUnlink && m.live.size() <= kLiveLow) {
    return FsOp::kCreate;
  }
  return op;
}

// Everything one phase measured.
struct FsPhase {
  PhaseOutcome out;
  std::vector<double> host_lat_us;  // host time alone, correct operations
  std::vector<double> durable_ms;  // SyncFile / SyncEverything, host + simulated
  Counters window;                 // counter deltas over the first WindowOps ops
  double window_user_bytes = 0;
  double section_bytes = 0;
  double restore_s = 0;
  double restore_seeks = 0;
  bool oracle_ok = false;
};

class FsClient {
 public:
  FsClient(FsWorld* w, FsModel* m, Report* r, SpanLog* log)
      : w_(w), m_(m), r_(r), log_(log), fs_(w->unix->fs()) {}

  // Runs `op`; returns false if it failed or answered wrongly.
  bool Run(FsOp op, Rng* rng, uint64_t op_id, uint64_t* user_bytes);

 private:
  Result<ObjectId> Lookup(uint64_t id, uint64_t op_id) {
    ScopedSpan s(log_, SpanName::kLookup, op_id, w_->kernel.get(), w_->init());
    return fs_.Lookup(w_->init(), w_->dir, FileName(id));
  }
  Status Write(ObjectId f, uint64_t id, uint64_t version, uint64_t op_id) {
    uint8_t buf[kFileBytes];
    FillContent(id, version, buf);
    ScopedSpan s(log_, SpanName::kWriteAt, op_id);
    return fs_.WriteAt(w_->init(), w_->dir, f, buf, 0, kFileBytes);
  }
  bool Fail(const std::string& what, Status st) {
    std::fprintf(stderr, "e2ebench: fs-durable %s failed: %s\n", what.c_str(),
                 std::string(histar::StatusName(st)).c_str());
    return false;
  }

  FsWorld* w_;
  FsModel* m_;
  Report* r_;
  SpanLog* log_;
  histar::FileSystem& fs_;
};

bool FsClient::Run(FsOp op, Rng* rng, uint64_t op_id, uint64_t* user_bytes) {
  ObjectId init = w_->init();
  switch (op) {
    case FsOp::kRead: {
      uint64_t id = m_->live[rng->Below(m_->live.size())];
      Result<ObjectId> f = Lookup(id, op_id);
      if (!f.ok()) {
        return Fail("lookup", f.status());
      }
      uint8_t buf[kFileBytes];
      uint8_t want[kFileBytes];
      Result<uint64_t> n = [&] {
        ScopedSpan s(log_, SpanName::kReadAt, op_id);
        return fs_.ReadAt(init, w_->dir, f.value(), buf, 0, kFileBytes);
      }();
      if (!n.ok()) {
        return Fail("read", n.status());
      }
      FillContent(id, m_->files[id].version, want);
      if (n.value() != kFileBytes || std::memcmp(buf, want, kFileBytes) != 0) {
        r_->Mismatch(FileName(id) + " does not hold version " +
                     std::to_string(m_->files[id].version));
        return false;
      }
      return true;
    }
    case FsOp::kOverwrite: {
      uint64_t id = m_->live[rng->Below(m_->live.size())];
      Result<ObjectId> f = Lookup(id, op_id);
      if (!f.ok()) {
        return Fail("lookup", f.status());
      }
      Status st = Write(f.value(), id, m_->files[id].version + 1, op_id);
      if (st != Status::kOk) {
        return Fail("overwrite", st);
      }
      ++m_->files[id].version;
      *user_bytes += kFileBytes;
      return true;
    }
    case FsOp::kCreate: {
      uint64_t id = m_->Add();
      Result<ObjectId> f = [&] {
        ScopedSpan s(log_, SpanName::kCreate, op_id);
        return fs_.Create(init, w_->dir, FileName(id), histar::Label(), kFileQuota);
      }();
      if (!f.ok()) {
        m_->Remove(id);
        return Fail("create", f.status());
      }
      Status st = Write(f.value(), id, 1, op_id);
      if (st != Status::kOk) {
        return Fail("write", st);
      }
      *user_bytes += kFileBytes;
      return true;
    }
    case FsOp::kUnlink: {
      uint64_t id = m_->live[rng->Below(m_->live.size())];
      Status st = [&] {
        ScopedSpan s(log_, SpanName::kUnlink, op_id);
        return fs_.Unlink(init, w_->dir, FileName(id));
      }();
      if (st != Status::kOk) {
        return Fail("unlink", st);
      }
      m_->Remove(id);
      return true;
    }
    case FsOp::kSyncFile: {
      uint64_t id = m_->live[rng->Below(m_->live.size())];
      Result<ObjectId> f = Lookup(id, op_id);
      if (!f.ok()) {
        return Fail("lookup", f.status());
      }
      ScopedSpan s(log_, SpanName::kSyncFile, op_id);
      Status st = fs_.SyncFile(init, w_->dir, f.value());
      return st == Status::kOk || Fail("SyncFile", st);
    }
    case FsOp::kReadDir: {
      Result<std::vector<std::pair<std::string, ObjectId>>> ls = [&] {
        ScopedSpan s(log_, SpanName::kReadDir, op_id);
        return fs_.ReadDir(init, w_->dir);
      }();
      if (!ls.ok()) {
        return Fail("ReadDir", ls.status());
      }
      if (ls.value().size() != m_->live.size()) {
        r_->Mismatch("ReadDir listed " + std::to_string(ls.value().size()) + " entries, " +
                     std::to_string(m_->live.size()) + " live");
        return false;
      }
      return true;
    }
    case FsOp::kSyncEverything: {
      ScopedSpan s(log_, SpanName::kSyncEverything, op_id);
      Status st = fs_.SyncEverything(init);
      return st == Status::kOk || Fail("SyncEverything", st);
    }
  }
  return false;
}

// The durability oracle: after a final SyncEverything, boot a fresh store
// and kernel from the disk bytes alone; the recovered directory must list
// exactly the live files, each holding its last acknowledged version.
bool CheckDurability(FsWorld* w, const FsModel& m, Report* r, SpanLog* log, FsPhase* ph) {
  ObjectId init = w->init();
  if (w->unix->fs().SyncEverything(init) != Status::kOk) {
    std::fprintf(stderr, "e2ebench: fs-durable final SyncEverything failed\n");
    return false;
  }
  histar::SingleLevelStore store2(w->disk.get());
  histar::Kernel k2;
  uint64_t sim0 = w->disk->sim_time_ns();
  uint64_t seeks0 = w->disk->seek_ops();
  uint64_t t0 = NowNs();
  Status st;
  {
    ScopedSpan s(log, SpanName::kRecover, 0);
    st = store2.Recover(&k2);
  }
  uint64_t t1 = NowNs();
  ph->restore_s = static_cast<double>(t1 - t0) / 1e9 +
                  static_cast<double>(w->disk->sim_time_ns() - sim0) / 1e9;
  ph->restore_seeks = static_cast<double>(w->disk->seek_ops() - seeks0);
  if (st != Status::kOk) {
    std::fprintf(stderr, "e2ebench: fs-durable recovery failed: %s\n",
                 std::string(histar::StatusName(st)).c_str());
    return false;
  }
  histar::FileSystem fs2(&k2);
  Result<std::vector<std::pair<std::string, ObjectId>>> ls = fs2.ReadDir(init, w->dir);
  if (!ls.ok()) {
    r->Mismatch("recovered directory unreadable");
    return false;
  }
  std::map<std::string, ObjectId> found(ls.value().begin(), ls.value().end());
  bool ok = found.size() == m.live.size();
  if (!ok) {
    r->Mismatch("recovered directory lists " + std::to_string(found.size()) + " files, " +
                std::to_string(m.live.size()) + " were live at the last sync");
  }
  uint8_t buf[kFileBytes];
  uint8_t want[kFileBytes];
  for (uint64_t id : m.live) {
    auto it = found.find(FileName(id));
    if (it == found.end()) {
      r->Mismatch("synced file " + FileName(id) + " missing after recovery");
      ok = false;
      continue;
    }
    Result<uint64_t> n = fs2.ReadAt(init, w->dir, it->second, buf, 0, kFileBytes);
    FillContent(id, m.files[id].version, want);
    if (!n.ok() || n.value() != kFileBytes || std::memcmp(buf, want, kFileBytes) != 0) {
      r->Mismatch("synced write of " + FileName(id) + " lost after recovery");
      ok = false;
    }
  }
  return ok;
}

// One timed phase on a booted world: at least `window_ops` operations and
// at least `seconds` of host time (`seconds` = 0: exactly window_ops).
FsPhase RunPhase(FsWorld* w, FsModel* m, Report* r, SpanLog* log, uint64_t seed,
                 uint64_t window_ops, double seconds) {
  FsPhase ph;
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 12);
  FsClient client(w, m, r, log);
  CounterSources src = w->sources();
  Counters c0 = Counters::Read(src);
  uint64_t epoch = w->store->epoch();
  uint64_t user_bytes = 0;
  double cpu0 = CpuSeconds();
  uint64_t sim_start = w->disk->sim_time_ns();
  uint64_t t_start = NowNs();
  uint64_t deadline = t_start + static_cast<uint64_t>(seconds * 1e9);
  for (uint64_t i = 0;; ++i) {
    if (i == window_ops) {
      ph.window = Counters::Read(src).Minus(c0);
      ph.window_user_bytes = static_cast<double>(user_bytes);
    }
    if (i >= window_ops && NowNs() >= deadline) {
      break;
    }
    FsOp op = PickOp(&rng, *m);
    uint64_t sim0 = w->disk->sim_time_ns();
    uint64_t t0 = NowNs();
    bool ok;
    {
      ScopedSpan s(log, SpanName::kOp, i + 1);
      ok = client.Run(op, &rng, i + 1, &user_bytes);
    }
    uint64_t t1 = NowNs();
    ++ph.out.attempted;
    if (!ok) {
      ++ph.out.failed;
      continue;
    }
    double sim = static_cast<double>(w->disk->sim_time_ns() - sim0);
    ph.out.lat_us.push_back((static_cast<double>(t1 - t0) + sim) / 1000.0);
    ph.host_lat_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
    if (op == FsOp::kSyncFile || op == FsOp::kSyncEverything) {
      ph.durable_ms.push_back((static_cast<double>(t1 - t0) + sim) / 1e6);
      uint64_t e = w->store->epoch();
      if (e != epoch) {
        ph.section_bytes += static_cast<double>(w->store->last_section_bytes());
        epoch = e;
      }
    }
  }
  ph.out.seconds = static_cast<double>(NowNs() - t_start) / 1e9;
  ph.out.sim_seconds = static_cast<double>(w->disk->sim_time_ns() - sim_start) / 1e9;
  ph.out.cpu_seconds = CpuSeconds() - cpu0;
  ph.oracle_ok = CheckDurability(w, *m, r, log, &ph);
  // Counter deltas run through the final sync and the recovery, so the
  // disk figures include the restore's reads and seeks.
  ph.out.delta = Counters::Read(src).Minus(c0);
  return ph;
}

double DurableP99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 99);
}

double WriteAmp(const FsPhase& ph) {
  return ph.window_user_bytes > 0 ? ph.window.disk_bytes_written / ph.window_user_bytes : 0;
}

}  // namespace

int RunFsDurable(const Options& opt) {
  Report report;
  report.Info("workload=fs-durable seed=" + std::to_string(opt.seed) +
              " trace=" + std::to_string(opt.trace) + " nproc=" + std::to_string(Nproc()) +
              " threads=1 engine=default(blob) files=" + std::to_string(kInitialFiles));
  const uint64_t window = WindowOps(opt.seconds);
  report.Info("deterministic window: first " + std::to_string(window) + " operations");

  // Set-up is booted kSetupRepeats times; the last world is measured. Like
  // the operations, a boot's time is host time plus the simulated disk time
  // its format and population syncs were charged.
  std::vector<double> setups;
  std::unique_ptr<FsWorld> world;
  FsModel model;
  auto boot = [&]() -> bool {
    histar::CurrentThread::Set(histar::kInvalidObject);
    world.reset();
    uint64_t t0 = NowNs();
    world = Boot(&model);
    uint64_t host_ns = NowNs() - t0;
    if (world == nullptr) {
      std::fprintf(stderr, "e2ebench: fs-durable boot failed\n");
      return false;
    }
    setups.push_back(static_cast<double>(host_ns + world->disk->sim_time_ns()) / 1e9);
    return true;
  };

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (!opt.trace) {
    if (!RepeatSetup(kSetupRepeats, boot)) {
      return 1;
    }
    SpanLog off(false);
    FsPhase ph = RunPhase(world.get(), &model, &report, &off, opt.seed, window, opt.seconds);
    AddEndToEnd(&report, Median(setups), ph.out, 99.0);
    LatencySummary host = Summarize(ph.host_lat_us, 99.0);
    report.Extra("host_ops_per_s", ph.out.host_ops_per_s(), "1/s");
    report.Extra("host_lat_p50_us", host.p50, "us");
    report.Extra("host_lat_tail_us", host.tail, "us");
    report.Extra("phase_sim_s", ph.out.sim_seconds, "s");
    report.Extra("durable_p99_ms", DurableP99(ph.durable_ms), "ms");
    report.Extra("sim_disk_s", ph.window.disk_sim_ns / 1e9, "s");
    report.Extra("write_amp", WriteAmp(ph), "ratio");
    report.Extra("restore_s", ph.restore_s, "s");
    report.Extra("durable_samples", static_cast<double>(ph.durable_ms.size()), "count");
    correct = ph.oracle_ok;
    attempted = ph.out.attempted;
    failed = ph.out.failed;
  } else {
    // Two phases of exactly `window` operations on fresh worlds booted from
    // the same seed: untraced, then traced. Their simulated-disk figures
    // must agree exactly (tracing may cost time, never change behaviour).
    if (!boot()) {
      return 1;
    }
    SpanLog off(false);
    FsPhase plain = RunPhase(world.get(), &model, &report, &off, opt.seed, window, 0);
    if (!boot()) {
      return 1;
    }
    SpanLog log(true);
    SetLockAccounting(world->kernel.get(), true);
    FsPhase traced = RunPhase(world.get(), &model, &report, &log, opt.seed, window, 0);
    SetLockAccounting(world->kernel.get(), false);
    bool same = plain.window.disk_sim_ns == traced.window.disk_sim_ns &&
                plain.window.disk_bytes_written == traced.window.disk_bytes_written &&
                plain.window.disk_write_ops == traced.window.disk_write_ops;
    if (!same) {
      report.Mismatch("traced and untraced phases charged different simulated disk work");
    }
    LayerFigures f;
    f.spans = DigestSpans({&log}, opt.trace_out);
    f.delta = traced.out.delta;
    f.ops = static_cast<double>(traced.out.attempted);
    f.trace_overhead = plain.out.host_ops_per_s() > 0
                           ? traced.out.host_ops_per_s() / plain.out.host_ops_per_s()
                           : 0;
    f.section_bytes = traced.section_bytes;
    f.restore_seeks = traced.restore_seeks;
    f.fail_ratio = plain.out.fail_ratio();
    f.durable_p99_ms = DurableP99(plain.durable_ms);
    f.sim_disk_s = plain.window.disk_sim_ns / 1e9;
    f.write_amp = WriteAmp(plain);
    f.restore_s = plain.restore_s;
    AddLayerMetrics(&report, f);
    correct = plain.oracle_ok && traced.oracle_ok;
    attempted = plain.out.attempted + traced.out.attempted;
    failed = plain.out.failed + traced.out.failed;
  }
  correct = correct && report.mismatches() == 0 && failed == 0;
  report.Print(correct, attempted, failed);
  histar::CurrentThread::Set(histar::kInvalidObject);
  world.reset();
  return 0;
}

}  // namespace e2e
