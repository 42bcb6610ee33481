// web: the §6.4 labeled web service over two netd stacks on a NetSwitch.
//
// One booted world serves the whole run: a closed loop with one client
// connection at a time (WebServer serves requests serially), one request
// per connection. The seeded mix spreads over every user the world
// accepts (AuthSystem::AddUser is called until it refuses): 80% GET of one
// of the user's own keys, 10% PUT, 5% wrong password (expects "403
// denied") and 5% a key that was never written (expects "404
// not-found"). Every response is compared with the benchmark's own model
// of the store.
//
// A Connect refused with kAgain is retried with exponential back-off
// (1 ms doubling to 32 ms); a request whose connect is still refused
// counts as failed. At this tree netd never frees a closed socket, so its
// quota runs out after a few hundred connections and every later request
// is refused: the run keeps going, and the refusals show in fail_ratio.
//
// A run issues a request count fixed by --seconds (kRequestsPerSecond of
// them per second), not as many as fit in the time, so attempted and
// failed repeat exactly from run to run. At this tree the refused
// requests' back-off makes such a run last about --seconds.
//
// The measured world runs pinned to one CPU. A request's latency hinges on
// a race between the client's Send and the client stack's pump going idle
// (it sleeps up to 5 ms waiting for a frame); with the threads spread over
// several CPUs the winner depends on the host's state (right after a
// multi-core load Send lands inside the pump's pass, p50 ~1.5 ms; otherwise
// after it went idle, p50 ~6.5 ms), so runs landed in either mode
// depending on what ran before them. On one CPU the scheduler decides it
// the same way every run.
//
// The server side runs on threads the benchmark does not call into, so
// the traced run also replays each completed request the way the demux
// does — Spawn of a worker over a pipe, in a container revoked afterwards
// — with a worker body that makes ServeOne's calls (AuthSystem::Login,
// UserStore::Get/Put) under spans.
#include <cmath>
#include <thread>

#include "e2ebench/harness.h"
#include "src/apps/webserver.h"

namespace e2e {
namespace {

using histar::Label;
using histar::Level;
using histar::ObjectId;
using histar::Result;
using histar::Status;

constexpr int kSetupRepeats = 31;  // a boot takes milliseconds: take many
constexpr int kMaxUsers = 64;    // AddUser attempts before giving up on a cap
constexpr int kKeysPerUser = 8;
constexpr int kConnectTries = 7;  // first try + 6 back-offs (1..32 ms)
constexpr double kRequestsPerSecond = 35;  // requests per second of --seconds
constexpr uint16_t kPort = 80;

struct WebUser {
  std::string name;
  std::string password;
  std::vector<std::string> values;  // by key index: the last stored value
};

struct WebWorld {
  std::unique_ptr<histar::Kernel> kernel;
  std::unique_ptr<histar::UnixWorld> unix;
  std::unique_ptr<histar::LogService> log;
  std::unique_ptr<histar::AuthSystem> auth;
  std::unique_ptr<histar::UserStore> store;
  std::unique_ptr<histar::NetSwitch> net;
  std::unique_ptr<histar::NetDaemon> srv;
  std::unique_ptr<histar::NetDaemon> cli;
  std::unique_ptr<histar::WebServer> web;
  ObjectId browser = histar::kInvalidObject;
  ObjectId replay_pool = histar::kInvalidObject;  // containers of replayed workers
  std::vector<WebUser> users;
  Status user_cap = Status::kOk;  // why the next AddUser was refused

  WebWorld() = default;
  WebWorld(const WebWorld&) = delete;
  WebWorld& operator=(const WebWorld&) = delete;
  ~WebWorld() {
    histar::CurrentThread::Set(histar::kInvalidObject);
    if (web != nullptr) {
      web->Stop();
    }
    if (srv != nullptr) {
      srv->Stop();
    }
    if (cli != nullptr) {
      cli->Stop();
    }
  }

  CounterSources sources() const {
    CounterSources s;
    s.kernel = kernel.get();
    s.net_a = srv.get();
    s.net_b = cli.get();
    return s;
  }
};

std::string KeyName(int k) { return "k" + std::to_string(k); }

// The worker body the traced run spawns: ServeOne's calls, each under a
// span. It records into the spawning thread's log while that thread is
// blocked between Spawn and Wait; Wait joins the worker's host thread, so
// the two never touch the log at once.
void RegisterReplayWorker(WebWorld* w, SpanLog* log) {
  histar::AuthSystem* auth = w->auth.get();
  histar::UserStore* store = w->store.get();
  w->unix->procs().RegisterProgram(
      "e2e-web-worker", [auth, store, log](histar::ProcessContext& ctx) -> int64_t {
        if (ctx.args.size() < 7) {
          return 1;
        }
        const std::string& verb = ctx.args[1];
        const std::string& user = ctx.args[2];
        const std::string& key = ctx.args[3];
        uint64_t op = std::strtoull(ctx.args[6].c_str(), nullptr, 10);
        std::string resp;
        Result<histar::LoginResult> login = [&] {
          ScopedSpan s(log, SpanName::kLogin, op);
          return auth->Login(ctx.self, user, ctx.args[4]);
        }();
        if (!login.ok() || !login.value().authenticated) {
          resp = "403 denied";
        } else if (verb == "PUT") {
          ScopedSpan s(log, SpanName::kStorePut, op);
          Status st = store->Put(ctx.self, user, key, ctx.args[5]);
          if (st != Status::kOk) {
            s.SetFailed();
          }
          resp = st == Status::kOk ? "200 stored" : "500 " + std::string(histar::StatusName(st));
        } else {
          ScopedSpan s(log, SpanName::kStoreGet, op);
          Result<std::string> v = store->Get(ctx.self, user, key);
          if (!v.ok()) {
            s.SetFailed();
          }
          resp = v.ok() ? "200 " + v.value()
                 : v.status() == Status::kNotFound
                     ? "404 not-found"
                     : "500 " + std::string(histar::StatusName(v.status()));
        }
        resp.push_back('\n');
        ctx.fds->Write(ctx.self, 0, resp.data(), resp.size());
        return 0;
      });
}

std::unique_ptr<WebWorld> Boot(uint64_t seed) {
  auto w = std::make_unique<WebWorld>();
  w->kernel = std::make_unique<histar::Kernel>();
  w->unix = histar::UnixWorld::Boot(w->kernel.get());
  if (w->unix == nullptr) {
    return nullptr;
  }
  ObjectId init = w->unix->init_thread();
  histar::CurrentThread::Set(init);
  w->log = histar::LogService::Start(w->unix.get());
  w->auth = histar::AuthSystem::Start(w->unix.get(), w->log.get());
  w->store = histar::UserStore::Create(w->unix.get());
  if (w->log == nullptr || w->auth == nullptr || w->store == nullptr) {
    return nullptr;
  }
  // Every user the world accepts.
  for (int i = 0; i < kMaxUsers; ++i) {
    WebUser u;
    u.name = "user" + std::to_string(i);
    u.password = "pw" + std::to_string(seed % 1000) + "x" + std::to_string(i);
    Result<histar::UnixUser> added = w->auth->AddUser(u.name, u.password);
    if (!added.ok()) {
      w->user_cap = added.status();
      break;
    }
    if (w->store->AddUser(init, added.value()) != Status::kOk) {
      return nullptr;
    }
    for (int k = 0; k < kKeysPerUser; ++k) {
      u.values.push_back("v" + std::to_string(i) + "." + std::to_string(k) + ".0");
      if (w->store->Put(init, u.name, KeyName(k), u.values.back()) != Status::kOk) {
        return nullptr;
      }
    }
    w->users.push_back(std::move(u));
  }
  if (w->users.empty()) {
    return nullptr;
  }
  w->net = std::make_unique<histar::NetSwitch>();
  w->srv = histar::NetDaemon::Start(w->unix.get(), w->net->NewPort(), "netd-s");
  w->cli = histar::NetDaemon::Start(w->unix.get(), w->net->NewPort(), "netd-c");
  if (w->srv == nullptr || w->cli == nullptr) {
    return nullptr;
  }
  w->web = histar::WebServer::Start(w->unix.get(), w->srv.get(), w->auth.get(), w->store.get(),
                                    kPort);
  if (w->web == nullptr) {
    return nullptr;
  }
  Label cc(Level::k2, {{w->cli->taint().i, Level::k3}});
  w->browser = w->kernel->BootstrapThread(w->cli->ClientTaint(), cc, "browser");
  histar::CreateSpec pool;
  pool.container = w->kernel->root_container();
  pool.descrip = "e2e-replay-workers";
  pool.quota = 64 << 20;
  Result<ObjectId> p = w->kernel->sys_container_create(init, pool, 0);
  if (!p.ok()) {
    return nullptr;
  }
  w->replay_pool = p.value();
  return w;
}

// One request as the mix drew it.
struct WebOp {
  bool put = false;
  size_t user = 0;
  int key = 0;
  std::string line;      // the request line, without LF
  std::string expected;  // the response the model predicts
  std::string value;     // PUT: the value stored
  std::vector<std::string> worker_args;  // replay: web-worker's argument vector
};

WebOp DrawOp(Rng* rng, const WebWorld& w, uint64_t op_id) {
  WebOp op;
  uint64_t r = rng->Below(100);
  op.user = rng->Below(w.users.size());
  op.key = static_cast<int>(rng->Below(kKeysPerUser));
  const WebUser& u = w.users[op.user];
  std::string key = KeyName(op.key);
  std::string pass = u.password;
  std::string verb = "GET";
  if (r < 80) {
    op.expected = "200 " + u.values[op.key];
  } else if (r < 90) {
    op.put = true;
    verb = "PUT";
    op.value = "v" + std::to_string(op.user) + "." + std::to_string(op.key) + "." +
               std::to_string(op_id);
    op.expected = "200 stored";
  } else if (r < 95) {
    pass = "wrong" + std::to_string(rng->Below(1000));
    op.expected = "403 denied";
  } else {
    key = "missing" + std::to_string(rng->Below(1000));
    op.expected = "404 not-found";
  }
  op.line = verb + " " + u.name + "/" + key + " PASS " + pass;
  if (op.put) {
    op.line += " DATA " + op.value;
  }
  op.worker_args = {"e2e-web-worker", verb, u.name, key, pass, op.value,
                    std::to_string(op_id)};
  return op;
}

enum class Outcome { kOk, kRefused, kError, kWrong };

class WebClient {
 public:
  WebClient(WebWorld* w, Report* r, SpanLog* log) : w_(w), r_(r), log_(log) {}

  // Sends one request over a fresh connection and checks the response.
  Outcome Request(const WebOp& op, uint64_t op_id, uint64_t* refused_calls);
  // Traced run: replays the request through a spawned worker.
  bool Replay(const WebOp& op, uint64_t op_id);

 private:
  WebWorld* w_;
  Report* r_;
  SpanLog* log_;
};

Outcome WebClient::Request(const WebOp& op, uint64_t op_id, uint64_t* refused_calls) {
  histar::NetDaemon* cli = w_->cli.get();
  ObjectId me = w_->browser;
  Result<uint64_t> conn = Status::kAgain;
  for (int attempt = 0; attempt < kConnectTries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1 << (attempt - 1)));
    }
    ScopedSpan s(log_, SpanName::kConnect, op_id);
    conn = cli->Connect(me, w_->srv->mac(), kPort);
    if (conn.ok()) {
      break;
    }
    s.SetFailed();
    ++*refused_calls;
    if (conn.status() != Status::kAgain) {
      break;
    }
  }
  if (!conn.ok()) {
    return conn.status() == Status::kAgain ? Outcome::kRefused : Outcome::kError;
  }
  std::string msg = op.line + "\n";
  std::string resp;
  {
    ScopedSpan s(log_, SpanName::kReplyWait, op_id);
    Result<uint64_t> sent = cli->Send(me, conn.value(), msg.data(), msg.size());
    char buf[512];
    while (sent.ok() && resp.find('\n') == std::string::npos) {
      Result<uint64_t> n = cli->Recv(me, conn.value(), buf, sizeof(buf), 10000);
      if (!n.ok() || n.value() == 0) {
        break;
      }
      if (resp.empty()) {
        s.End();  // first response byte
      }
      resp.append(buf, n.value());
    }
    if (resp.empty()) {
      s.SetFailed();
    }
  }
  {
    ScopedSpan s(log_, SpanName::kClose, op_id);
    cli->CloseSocket(me, conn.value());
  }
  if (resp.empty()) {
    return Outcome::kError;
  }
  if (resp.back() == '\n') {
    resp.pop_back();
  }
  if (resp != op.expected) {
    r_->Mismatch("\"" + op.line + "\" answered \"" + resp + "\", expected \"" + op.expected +
                 "\"");
    return Outcome::kWrong;
  }
  return Outcome::kOk;
}

bool WebClient::Replay(const WebOp& op, uint64_t op_id) {
  histar::Kernel* k = w_->kernel.get();
  ObjectId init = w_->unix->init_thread();
  histar::CurrentThread bind(init);
  histar::CreateSpec cspec;
  cspec.container = w_->replay_pool;
  cspec.descrip = "e2e-worker";
  cspec.quota = w_->web->worker_quota();
  Result<ObjectId> area = k->sys_container_create(init, cspec, 0);
  if (!area.ok()) {
    return false;
  }
  histar::ProcessContext& ctx = w_->unix->init_context();
  // The pipe lives in the worker's area too, so revoking the area frees it
  // and the replay leaves the server's own quotas untouched.
  histar::ProcessIds pipe_ids = ctx.ids;
  pipe_ids.proc_ct = area.value();
  histar::FdTable fds(k, pipe_ids, Label());
  Result<std::pair<int, int>> pipe = fds.CreatePipe(init);
  std::string resp;
  if (pipe.ok()) {
    histar::ProcessOpts popts;
    popts.proc_parent = area.value();
    popts.quota = w_->web->worker_quota() / 2;
    popts.inherit_fds = {fds.Entry(pipe.value().second).value()};
    ScopedSpan s(log_, SpanName::kSpawn, op_id);
    Result<std::unique_ptr<histar::ProcHandle>> h =
        w_->unix->procs().Spawn(ctx, "e2e-web-worker", op.worker_args, popts);
    if (h.ok()) {
      char buf[512];
      while (resp.find('\n') == std::string::npos) {
        Result<uint64_t> n = fds.ReadTimeout(init, pipe.value().first, buf, sizeof(buf), 5000);
        if (!n.ok() || n.value() == 0) {
          break;
        }
        resp.append(buf, n.value());
      }
      h.value()->Wait(init, 5000);
    } else {
      s.SetFailed();
    }
    fds.Close(init, pipe.value().first);
    fds.Close(init, pipe.value().second);
  }
  k->sys_container_unref(init, histar::ContainerEntry{w_->replay_pool, area.value()});
  if (!resp.empty() && resp.back() == '\n') {
    resp.pop_back();
  }
  // The request already ran once over the network, so a PUT stores the
  // same value again.
  if (resp != op.expected) {
    r_->Mismatch("replayed \"" + op.line + "\" answered \"" + resp + "\", expected \"" +
                 op.expected + "\"");
    return false;
  }
  return true;
}

struct WebPhase {
  PhaseOutcome out;
  uint64_t refused = 0;        // requests refused at connect
  uint64_t refused_calls = 0;  // Connect calls refused
  uint64_t first_refused = 0;  // 1-based index of the first refused request
  uint64_t errors = 0;
};

WebPhase RunPhase(WebWorld* w, Report* r, SpanLog* log, uint64_t seed, uint64_t requests) {
  WebPhase ph;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 7);
  WebClient client(w, r, log);
  histar::CurrentThread::Set(w->browser);
  CounterSources src = w->sources();
  Counters c0 = Counters::Read(src);
  double cpu0 = CpuSeconds();
  uint64_t t_start = NowNs();
  for (uint64_t i = 1; i <= requests; ++i) {
    WebOp op = DrawOp(&rng, *w, i);
    uint64_t t0 = NowNs();
    Outcome o;
    {
      ScopedSpan s(log, SpanName::kOp, i);
      o = client.Request(op, i, &ph.refused_calls);
    }
    uint64_t t1 = NowNs();
    ++ph.out.attempted;
    if (o != Outcome::kOk) {
      ++ph.out.failed;
      if (o == Outcome::kRefused) {
        ++ph.refused;
        if (ph.first_refused == 0) {
          ph.first_refused = i;
        }
      } else if (o == Outcome::kError) {
        ++ph.errors;
      }
      continue;
    }
    ph.out.lat_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
    if (op.put) {
      w->users[op.user].values[op.key] = op.value;
    }
    if (log->enabled() && !client.Replay(op, i)) {
      ++ph.errors;
    }
  }
  ph.out.seconds = static_cast<double>(NowNs() - t_start) / 1e9;
  ph.out.cpu_seconds = CpuSeconds() - cpu0;
  ph.out.delta = Counters::Read(src).Minus(c0);
  return ph;
}

void AddWebExtras(Report* r, const WebWorld& w, const WebPhase& ph) {
  r->Extra("users_accepted", static_cast<double>(w.users.size()), "count");
  r->Extra("requests_refused", static_cast<double>(ph.refused), "count");
  r->Extra("first_refused_request", static_cast<double>(ph.first_refused), "index");
  r->Extra("requests_errored", static_cast<double>(ph.errors), "count");
  r->Info(std::string("AddUser #") + std::to_string(w.users.size() + 1) + " refused: " +
          (w.user_cap == Status::kOk ? std::string("(no cap hit)")
                                      : std::string(histar::StatusName(w.user_cap))));
  if (ph.refused > 0) {
    r->Info("Connect refused (again) from request " + std::to_string(ph.first_refused) +
            " on; known cause when this benchmark was written: netd's Close never unrefs"
            " or erases a socket, so netd's quota runs out");
  }
}

}  // namespace

int RunWeb(const Options& opt) {
  Report report;
  const auto requests = static_cast<uint64_t>(std::llround(kRequestsPerSecond * opt.seconds));
  report.Info("workload=web seed=" + std::to_string(opt.seed) +
              " trace=" + std::to_string(opt.trace) + " nproc=" + std::to_string(Nproc()) +
              " threads=1 (closed loop, one connection at a time, pinned to one CPU)" +
              " requests=" + std::to_string(requests));
  std::vector<double> setups;
  std::unique_ptr<WebWorld> world;
  auto boot = [&]() -> bool {
    world.reset();
    uint64_t t0 = NowNs();
    world = Boot(opt.seed);
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (world == nullptr) {
      std::fprintf(stderr, "e2ebench: web boot failed\n");
    }
    return world != nullptr;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (!opt.trace) {
    if (!RepeatSetup(kSetupRepeats, boot)) {
      return 1;
    }
    // The measured world: booted again once the process is pinned, so
    // every thread it starts runs on that CPU.
    if (!PinToCurrentCpu() || !boot()) {
      return 1;
    }
    setups.pop_back();  // not one of the set-up repetitions
    SpanLog off(false);
    WebPhase ph = RunPhase(world.get(), &report, &off, opt.seed, requests);
    attempted = ph.out.attempted;
    failed = ph.out.failed;
    AddEndToEnd(&report, Median(setups), std::move(ph.out), 90.0);
    AddWebExtras(&report, *world, ph);
  } else {
    // Untraced, then traced, each the full request count on its own world
    // (the socket leak would otherwise leave the second phase nothing to
    // do, and half the count would not reach it).
    if (!PinToCurrentCpu() || !boot()) {
      return 1;
    }
    SpanLog off(false);
    WebPhase plain = RunPhase(world.get(), &report, &off, opt.seed, requests);
    if (!boot()) {
      return 1;
    }
    SpanLog log(true);
    RegisterReplayWorker(world.get(), &log);
    SetLockAccounting(world->kernel.get(), true);
    WebPhase traced = RunPhase(world.get(), &report, &log, opt.seed, requests);
    SetLockAccounting(world->kernel.get(), false);
    LayerFigures f;
    f.spans = DigestSpans({&log}, opt.trace_out);
    f.delta = traced.out.delta;
    f.ops = static_cast<double>(traced.out.attempted);
    f.trace_overhead =
        plain.out.host_ops_per_s() > 0
            ? traced.out.host_ops_per_s() / plain.out.host_ops_per_s()
            : 0;
    f.connect_refused = static_cast<double>(traced.refused_calls);
    f.fail_ratio = plain.out.fail_ratio();
    AddLayerMetrics(&report, f);
    AddWebExtras(&report, *world, traced);
    attempted = plain.out.attempted + traced.out.attempted;
    failed = plain.out.failed + traced.out.failed;
  }
  // Refused connects are failures, not wrong answers: the verdict covers
  // every response the service did give.
  report.Print(report.mismatches() == 0, attempted, failed);
  world.reset();
  return 0;
}

}  // namespace e2e
