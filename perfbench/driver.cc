// pb_driver — the in-process workloads, annotated_fastpath and
// avoid_contended: worker threads take sync::Mutex / sync::SharedMutex
// locks at annotated stacks (DIMMUNIX_FRAME-style frames pushed along a
// path of the generated call tower), against a Runtime with the default
// Config and a history file written from the generated signatures.
//
//   pb_driver write-history --input FILE --out HISTORY
//   pb_driver run --input FILE --history HISTORY --seconds S --setups K
//                 [--trace-seconds T --spans FILE]
//
// `run` times K set-ups (Runtime construction with its history load, lock
// creation, every worker through one op) and one measured phase. With
// --trace-seconds it adds a traced phase (the acquisition port called
// directly, a span around each layer call, the monitor driven at τ by the
// benchmark) and a raw phase (the same ops on the bare primitives).
// Prints one JSON object.

#include <memory>
#include <optional>

#include "common.h"
#include "src/stack/annotation.h"
#include "src/sync/mutex.h"
#include "src/sync/raw_mutex.h"
#include "src/sync/raw_shared_mutex.h"
#include "src/sync/shared_mutex.h"
#include "traced.h"

namespace {

using dimmunix::Frame;

struct alignas(64) Guarded {
  std::uint64_t exclusive = 0;  // bumped only under the exclusive lock
  std::atomic<std::uint64_t> shared{0};
};

enum class Kind { kSync, kTraced, kRaw };

// The generated workload with its frames resolved.
struct Workload {
  explicit Workload(const pb::Input& in)
      : input(in),
        rwlocks_from(static_cast<int>(in.Int("rwlocks_from"))),
        delta_in_ns(static_cast<std::uint64_t>(in.Int("delta_in_ns"))),
        delta_out_ns(static_cast<std::uint64_t>(in.Int("delta_out_ns"))),
        site_shared(dimmunix::FrameFromName("pb.site.s")),
        site_write(dimmunix::FrameFromName("pb.site.w")),
        site_nested(dimmunix::FrameFromName("pb.site.n")) {
    for (const std::vector<int>& path : in.paths) {
      std::vector<Frame> frames;
      for (std::size_t level = 0; level < path.size(); ++level) {
        frames.push_back(dimmunix::FrameFromName("pb.L" + std::to_string(level) + ".F" +
                                                 std::to_string(path[level])));
      }
      paths.push_back(std::move(frames));
    }
  }

  // The innermost frame of an acquisition: exclusive on a plain mutex adds
  // none, so those stacks are the bare tower path (as in fig5).
  std::optional<Frame> Site(const pb::Acq& a) const {
    if (a.lock < rwlocks_from) {
      return std::nullopt;
    }
    return a.shared ? site_shared : site_write;
  }

  const pb::Input& input;
  const int rwlocks_from;
  const std::uint64_t delta_in_ns;
  const std::uint64_t delta_out_ns;
  const Frame site_shared;
  const Frame site_write;
  const Frame site_nested;
  std::vector<std::vector<Frame>> paths;  // outermost first
};

// One phase's locks: sync adapters over the runtime, or bare primitives
// (traced and raw phases). Locks below rwlocks_from are mutexes.
struct Locks {
  Locks(const Workload& w, dimmunix::Runtime* rt, Kind kind) : rt(rt), kind(kind) {
    const int n = static_cast<int>(w.input.Int("locks"));
    counters = std::make_unique<Guarded[]>(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const bool rw = i >= w.rwlocks_from;
      if (kind == Kind::kSync) {
        if (rw) {
          shared.push_back(std::make_unique<dimmunix::SharedMutex>(*rt));
        } else {
          mutexes.push_back(std::make_unique<dimmunix::Mutex>(*rt));
        }
      } else if (rw) {
        raw_shared.push_back(std::make_unique<dimmunix::RawSharedMutex>());
      } else {
        raw_mutexes.push_back(std::make_unique<dimmunix::RawMutex>());
      }
    }
    lock_count = n;
    rwlocks_from = w.rwlocks_from;
  }

  void RawLock(const pb::Acq& a) {
    if (a.lock < rwlocks_from) {
      raw_mutexes[static_cast<std::size_t>(a.lock)]->Lock();
    } else if (a.shared) {
      raw_shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->LockShared();
    } else {
      raw_shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->LockExclusive();
    }
  }
  void RawUnlock(const pb::Acq& a) {
    if (a.lock < rwlocks_from) {
      raw_mutexes[static_cast<std::size_t>(a.lock)]->Unlock();
    } else if (a.shared) {
      raw_shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->UnlockShared();
    } else {
      raw_shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->UnlockExclusive();
    }
  }
  dimmunix::LockId RawId(const pb::Acq& a) const {
    if (a.lock < rwlocks_from) {
      return reinterpret_cast<dimmunix::LockId>(
          raw_mutexes[static_cast<std::size_t>(a.lock)].get());
    }
    return reinterpret_cast<dimmunix::LockId>(
        raw_shared[static_cast<std::size_t>(a.lock - rwlocks_from)].get());
  }

  // False when the acquisition failed (kBroken / kSelfDeadlock / refused).
  bool Acquire(const pb::Acq& a, pb::SpanLog* log, std::uint64_t op_id) {
    switch (kind) {
      case Kind::kSync: {
        dimmunix::LockResult r;
        if (a.lock < rwlocks_from) {
          r = mutexes[static_cast<std::size_t>(a.lock)]->Lock();
        } else if (a.shared) {
          r = shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->LockShared();
        } else {
          r = shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->Lock();
        }
        return r == dimmunix::LockResult::kOk;
      }
      case Kind::kTraced:
        return pb::TracedAcquire(*rt, *obs, log, op_id, RawId(a), a.shared, [&] { RawLock(a); });
      case Kind::kRaw:
        RawLock(a);
        return true;
    }
    return false;
  }
  void Release(const pb::Acq& a, pb::SpanLog* log, std::uint64_t op_id) {
    switch (kind) {
      case Kind::kSync:
        if (a.lock < rwlocks_from) {
          mutexes[static_cast<std::size_t>(a.lock)]->Unlock();
        } else if (a.shared) {
          shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->UnlockShared();
        } else {
          shared[static_cast<std::size_t>(a.lock - rwlocks_from)]->Unlock();
        }
        return;
      case Kind::kTraced:
        pb::TracedRelease(*rt, log, op_id, RawId(a), [&] { RawUnlock(a); });
        return;
      case Kind::kRaw:
        RawUnlock(a);
        return;
    }
  }

  void Touch(const pb::Acq& a) {
    Guarded& counter = counters[static_cast<std::size_t>(a.lock)];
    if (a.shared) {
      counter.shared.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++counter.exclusive;
    }
  }
  std::uint64_t CounterSum() const {
    std::uint64_t sum = 0;
    for (int i = 0; i < lock_count; ++i) {
      sum += counters[static_cast<std::size_t>(i)].exclusive +
             counters[static_cast<std::size_t>(i)].shared.load();
    }
    return sum;
  }

  dimmunix::Runtime* rt;
  Kind kind;
  dimmunix::obs::Recorder* obs = nullptr;  // traced phase only
  int lock_count = 0;
  int rwlocks_from = 0;
  std::vector<std::unique_ptr<dimmunix::Mutex>> mutexes;
  std::vector<std::unique_ptr<dimmunix::SharedMutex>> shared;
  std::vector<std::unique_ptr<dimmunix::RawMutex>> raw_mutexes;
  std::vector<std::unique_ptr<dimmunix::RawSharedMutex>> raw_shared;
  std::unique_ptr<Guarded[]> counters;
  std::atomic<std::uint64_t> failed{0};
};

// Flips one signature's disabled bit every period while it lives: writes
// to the engine's signature cache beside the workers' reads.
class Toggler {
 public:
  Toggler(dimmunix::Runtime& rt, int signature, std::chrono::milliseconds period)
      : thread_([this, &rt, signature, period] {
          for (bool disabled = true; !stop_.load(); disabled = !disabled) {
            std::this_thread::sleep_for(period);
            rt.SetSignatureDisabled(signature, disabled);
            toggles_.fetch_add(1);
          }
        }) {}
  ~Toggler() {
    stop_.store(true);
    thread_.join();
  }
  Toggler(const Toggler&) = delete;
  Toggler& operator=(const Toggler&) = delete;
  std::uint64_t toggles() const { return toggles_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> toggles_{0};
  std::thread thread_;
};

pb::SpanRegistry g_span_logs;
std::uint64_t g_trace_every = 1;

// One scripted op: push the path's frames, take the lock (and the nested
// one), bump the guarded counters, hold δin, release, pop, wait δout.
int DoOp(const Workload& w, Locks& locks, pb::Worker& worker, std::uint64_t i, bool timed) {
  const std::vector<pb::Op>& script = w.input.ops[static_cast<std::size_t>(worker.index)];
  const pb::Op& op = script[i % script.size()];
  thread_local pb::SpanLog* t_log = nullptr;
  pb::SpanLog* log = nullptr;
  std::uint64_t op_id = 0;
  std::size_t op_span = 0;
  if (locks.kind == Kind::kTraced && i % g_trace_every == 0) {
    if (t_log == nullptr) {
      t_log = g_span_logs.NewLog(static_cast<std::uint32_t>(worker.index), pb::kSpanLogCapacity);
    }
    if (!t_log->full()) {
      log = t_log;
      op_id = (static_cast<std::uint64_t>(worker.index) << 48) | i;
      op_span = log->Open(op_id, pb::kSpanOp, pb::NowNs());
    }
  }
  const std::vector<Frame>& frames = w.paths[static_cast<std::size_t>(op.path)];
  for (Frame f : frames) {
    dimmunix::PushAnnotatedFrame(f);
  }
  int pushed = static_cast<int>(frames.size());
  const auto take = [&](const pb::Acq& a, std::optional<Frame> site) {
    if (site) {
      dimmunix::PushAnnotatedFrame(*site);
      ++pushed;
    }
    const std::uint64_t t0 = timed ? pb::NowNs() : 0;
    const bool ok = locks.Acquire(a, log, op_id);
    if (timed && ok) {
      pb::Phase::Record(worker, pb::NowNs() - t0);
    }
    if (ok) {
      locks.Touch(a);
    } else {
      locks.failed.fetch_add(1);
    }
    return ok;
  };
  int done = 0;
  if (take(op.first, w.Site(op.first))) {
    ++done;
    if (op.nested && take(op.second, w.site_nested)) {
      ++done;
      pb::BusySpinNs(w.delta_in_ns);
      locks.Release(op.second, log, op_id);
    } else {
      pb::BusySpinNs(w.delta_in_ns);
    }
    locks.Release(op.first, log, op_id);
  }
  for (; pushed > 0; --pushed) {
    dimmunix::PopAnnotatedFrame();
  }
  if (log != nullptr) {
    log->Close(op_span, pb::NowNs());
  }
  pb::BusySpinNs(w.delta_out_ns);
  return done;
}

dimmunix::Config RuntimeConfig(const std::string& history) {
  dimmunix::Config config;  // the defaults, but for the history path
  config.history_path = history;
  return config;
}

struct PhaseOutput {
  pb::PhaseResult result;
  std::uint64_t counter_sum = 0;
  std::uint64_t failed = 0;
};

PhaseOutput RunPhase(const Workload& w, dimmunix::Runtime* rt, Kind kind, double seconds,
                     const std::function<void()>& on_ready, std::uint64_t setup_start) {
  Locks locks(w, rt, kind);
  std::optional<dimmunix::obs::Recorder> obs;
  if (kind == Kind::kTraced) {
    obs.emplace(dimmunix::obs::Recorder::Options{});
    locks.obs = &*obs;
  }
  pb::Phase phase(static_cast<int>(w.input.Int("threads")), seconds,
                  static_cast<int>(w.input.Int("rounds")),
                  static_cast<int>(w.input.Int("sample_every")));
  PhaseOutput out;
  out.result = phase.Run(
      setup_start,
      [&](pb::Worker& worker, std::uint64_t i, bool timed) {
        return DoOp(w, locks, worker, i, timed);
      },
      on_ready);
  out.counter_sum = locks.CounterSum();
  out.failed = locks.failed.load();
  return out;
}

struct Args {
  std::string command;
  std::string input;
  std::string history;
  std::string out;
  std::string spans;
  double seconds = 1;
  double trace_seconds = 0;
  int setups = 1;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    pb::Die("usage: pb_driver write-history|run ...");
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      pb::Die("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--input") {
      args.input = value;
    } else if (flag == "--history") {
      args.history = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace-seconds") {
      args.trace_seconds = std::stod(value);
    } else if (flag == "--setups") {
      args.setups = std::stoi(value);
    } else {
      pb::Die("unknown flag " + flag);
    }
  }
  return args;
}

// Writes the generated signatures as a v2 history file.
int WriteHistory(const pb::Input& input, const std::string& out) {
  const dimmunix::Config defaults;
  dimmunix::StackTable table(defaults.max_match_depth);
  dimmunix::History history(&table);
  for (const auto& sig : input.sigs) {
    std::vector<dimmunix::StackId> stacks;
    for (const std::vector<std::string>& names : sig) {
      std::vector<Frame> frames;
      for (const std::string& name : names) {
        frames.push_back(dimmunix::FrameFromName(name));
      }
      stacks.push_back(table.Intern(frames));
    }
    bool added = false;
    history.Add(dimmunix::SignatureKind::kDeadlock, std::move(stacks),
                static_cast<int>(input.Int("match_depth")), &added);
  }
  if (history.size() != input.sigs.size() || !history.Save(out)) {
    pb::Die("could not write the generated history to " + out);
  }
  std::printf("{\"signatures\": %zu}\n", history.size());
  return 0;
}

int Run(const pb::Input& input, const Args& args) {
  const Workload w(input);
  pb::Json json;
  json.Str("build_type", PB_BUILD_TYPE).Str("sanitize", PB_SANITIZE);

  // Set-ups: the runtime comes up with its history, then the workers.
  std::vector<double> setups;
  for (int k = 0; k < args.setups; ++k) {
    const std::uint64_t t0 = pb::NowNs();
    dimmunix::Runtime rt(RuntimeConfig(args.history));
    setups.push_back(RunPhase(w, &rt, Kind::kSync, 0, [] {}, t0).result.setup_s);
  }

  // The measured phase.
  {
    const std::uint64_t t0 = pb::NowNs();
    dimmunix::Runtime rt(RuntimeConfig(args.history));
    const long toggle = input.Int("toggle_signature");
    std::optional<Toggler> toggler;
    dimmunix::EngineStatsSnapshot e0;
    dimmunix::MonitorStatsSnapshot m0;
    const PhaseOutput out = RunPhase(
        w, &rt, Kind::kSync, args.seconds,
        [&] {
          e0 = rt.engine().stats().Snapshot();
          m0 = rt.monitor().stats().Snapshot();
          if (toggle >= 0) {
            toggler.emplace(rt, static_cast<int>(toggle),
                            std::chrono::milliseconds(input.Int("toggle_period_ms")));
          }
        },
        t0);
    const std::uint64_t toggles = toggler ? toggler->toggles() : 0;
    toggler.reset();
    setups.push_back(out.result.setup_s);
    pb::AddPhase(json, "", out.result);
    pb::AddCounters(json, e0, rt.engine().stats().Snapshot(), m0, rt.monitor().stats().Snapshot());
    const dimmunix::obs::HistogramSnapshot park =
        rt.recorder().histogram(dimmunix::obs::HistoKind::kYieldDuration).Snapshot();
    json.Num("counter_sum", static_cast<double>(out.counter_sum))
        .Num("failed", static_cast<double>(out.failed))
        .Num("toggles", static_cast<double>(toggles))
        .Num("park_p50_ns", static_cast<double>(park.Percentile(50)))
        .Num("park_p99_ns", static_cast<double>(park.Percentile(99)))
        .Num("interned_stacks", static_cast<double>(rt.stacks().size()))
        .Num("signatures", static_cast<double>(rt.history().size()));
  }
  json.Nums("setups_s", setups);

  if (args.trace_seconds > 0) {
    g_trace_every = static_cast<std::uint64_t>(input.Int("trace_every"));
    dimmunix::Config config = RuntimeConfig(args.history);
    config.start_monitor = false;  // driven by the benchmark at τ instead
    dimmunix::Runtime rt(config);
    PhaseOutput traced;
    {
      pb::MonitorDriver monitor(rt, g_span_logs, static_cast<std::uint32_t>(input.Int("threads")));
      const long toggle = input.Int("toggle_signature");
      std::optional<Toggler> toggler;
      if (toggle >= 0) {
        toggler.emplace(rt, static_cast<int>(toggle),
                        std::chrono::milliseconds(input.Int("toggle_period_ms")));
      }
      traced = RunPhase(w, &rt, Kind::kTraced, args.trace_seconds, [] {}, pb::NowNs());
    }
    pb::AddPhase(json, "traced.", traced.result);
    json.Num("traced.counter_sum", static_cast<double>(traced.counter_sum))
        .Num("traced.failed", static_cast<double>(traced.failed));
    pb::AddSpans(json, pb::WriteSpans(g_span_logs.logs(), args.spans));

    const PhaseOutput raw =
        RunPhase(w, nullptr, Kind::kRaw, args.trace_seconds, [] {}, pb::NowNs());
    pb::AddPhase(json, "raw.", raw.result);
    json.Num("raw.counter_sum", static_cast<double>(raw.counter_sum));
    json.Num("history_load_ms", pb::HistoryLoadMs(args.history, config.max_match_depth));
  }
  json.Num("peak_rss_mb", pb::PeakRssMb());
  std::printf("%s\n", json.Text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const pb::Input input = pb::ReadInput(args.input);
  if (args.command == "write-history") {
    return WriteHistory(input, args.out);
  }
  if (args.command == "run") {
    return Run(input, args);
  }
  pb::Die("unknown command " + args.command);
}
