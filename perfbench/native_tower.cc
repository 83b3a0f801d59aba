// native_tower — the native_preload workload: an ordinary pthread program
// with no Dimmunix linkage, run under LD_PRELOAD=libdimmunix_preload.so.
//
// Each op walks a call tower of noinline functions (kLevels levels of
// kBranching distinct functions, so 4^5 = 1024 distinct native stacks) along
// a path from the generated input, then takes one of 16 mutexes or the
// read-mostly rwlock at an innermost lock site. Every lock guards a counter;
// the counters must sum to the acquisitions the workers report.
//
// Worker 0 runs the closed loop; the input's loop_workers is 1. Every
// abba_period_ms it also takes an AB-BA pair, and worker 1, the partner,
// takes the reverse side at the same tick: that is all the partner does.
// Each holds its first lock for abba_hold_us. Without a
// history that holds the AB-BA signature this deadlocks (the watchdog in
// common.h then reports the hang); `--mode immunize` forces exactly that
// deadlock so the runtime records the signature.
//
// Built twice: as pb_native (plain pthreads, for LD_PRELOAD) and, with
// PB_TRACED, as pb_native_traced, which links the library and routes every
// acquisition through the public acquisition port with a span around each
// layer call (CaptureStack, StackTable::Intern, BeginAcquire, the raw lock,
// Commit, EndRelease, the raw unlock), while a benchmark thread drives
// Monitor::RunOnce at τ.
//
//   pb_native --input FILE --mode run|setup|immunize --seconds S
//             [--hold] [--no-abba] [--history FILE --spans FILE]   (traced)

#include <pthread.h>

#include <array>
#include <chrono>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>

#include "common.h"

#ifdef PB_TRACED
#include <optional>

#include "traced.h"
#endif

namespace {

constexpr int kLevels = 5;
constexpr int kBranching = 4;

struct alignas(64) Guarded {
  std::uint64_t exclusive = 0;  // bumped only under the exclusive lock
  std::atomic<std::uint64_t> shared{0};
};

struct State {
  const pb::Input* input = nullptr;
  int rwlocks_from = 0;
  std::vector<pthread_mutex_t> mutexes;
  pthread_rwlock_t rwlock = PTHREAD_RWLOCK_INITIALIZER;
  std::unique_ptr<Guarded[]> guarded;  // one per lock, then the two AB-BA mutexes
  pthread_mutex_t abba[2] = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_MUTEX_INITIALIZER};
  int loop_workers = 0;  // workers from here on are AB-BA partners
  std::uint64_t abba_period_ns = 0;
  std::uint64_t abba_hold_ns = 0;
  std::uint64_t phase_start_ns = 0;
  std::atomic<std::uint64_t> abba_attempted{0};
  std::atomic<std::uint64_t> abba_done{0};
};
State g;

void RawLock(int lock, bool shared) {
  if (lock >= static_cast<int>(g.mutexes.size()) + 2) {
    if (shared) {
      pthread_rwlock_rdlock(&g.rwlock);
    } else {
      pthread_rwlock_wrlock(&g.rwlock);
    }
  } else if (lock >= static_cast<int>(g.mutexes.size())) {
    pthread_mutex_lock(&g.abba[lock - g.mutexes.size()]);
  } else {
    pthread_mutex_lock(&g.mutexes[static_cast<std::size_t>(lock)]);
  }
}

void RawUnlock(int lock) {
  if (lock >= static_cast<int>(g.mutexes.size()) + 2) {
    pthread_rwlock_unlock(&g.rwlock);
  } else if (lock >= static_cast<int>(g.mutexes.size())) {
    pthread_mutex_unlock(&g.abba[lock - g.mutexes.size()]);
  } else {
    pthread_mutex_unlock(&g.mutexes[static_cast<std::size_t>(lock)]);
  }
}

// Internal lock numbering: the n = rwlocks_from mutexes 0..n-1, the AB-BA
// pair n and n+1, then the rwlock n+2. Input lock numbers below n are
// mutexes, the rest the rwlock.
int Internal(int input_lock) {
  return input_lock < g.rwlocks_from ? input_lock : static_cast<int>(g.mutexes.size()) + 2;
}

#ifdef PB_TRACED

dimmunix::Runtime* g_rt = nullptr;
// The benchmark's own recorder: obs spans time one histogram Record on it
// without adding samples to the runtime's histograms.
dimmunix::obs::Recorder* g_obs = nullptr;
std::uint64_t g_trace_every = 1;
pb::SpanRegistry g_span_logs;
thread_local pb::SpanLog* t_log = nullptr;    // this thread's log
thread_local pb::SpanLog* t_spans = nullptr;  // t_log while the current op is traced
thread_local std::uint64_t t_op = 0;

dimmunix::LockId IdOf(int lock) {
  if (lock >= static_cast<int>(g.mutexes.size()) + 2) {
    return reinterpret_cast<dimmunix::LockId>(&g.rwlock);
  }
  if (lock >= static_cast<int>(g.mutexes.size())) {
    return reinterpret_cast<dimmunix::LockId>(&g.abba[lock - g.mutexes.size()]);
  }
  return reinterpret_cast<dimmunix::LockId>(&g.mutexes[static_cast<std::size_t>(lock)]);
}

// What the preload shim does for pthread_mutex_lock, through the same
// public port, with a span around each layer call when the op is traced.
[[gnu::noinline]] void Acquire(int lock, bool shared) {
  if (!pb::TracedAcquire(*g_rt, *g_obs, t_spans, t_op, IdOf(lock), shared,
                         [&] { RawLock(lock, shared); })) {
    pb::Die("the engine refused an acquisition");
  }
}

[[gnu::noinline]] void Release(int lock) {
  pb::TracedRelease(*g_rt, t_spans, t_op, IdOf(lock), [&] { RawUnlock(lock); });
}

#else

void Acquire(int lock, bool shared) { RawLock(lock, shared); }
void Release(int lock) { RawUnlock(lock); }

#endif

// One call site for every acquisition, timed or not, and always its own
// frame: the recorded AB-BA stacks must not depend on whether the
// acquisition that deadlocked happened to be a timed one.
[[gnu::noinline]] void TimedAcquire(pb::Worker& w, int lock, bool shared, bool timed) {
  const std::uint64_t t0 = pb::NowNs();
  Acquire(lock, shared);
  if (timed) {
    pb::Phase::Record(w, pb::NowNs() - t0);
  }
}

void Touch(int lock, bool shared) {
  Guarded& counter = g.guarded[static_cast<std::size_t>(lock)];
  if (shared) {
    counter.shared.fetch_add(1, std::memory_order_relaxed);
  } else {
    ++counter.exclusive;
  }
}

struct Ctx {
  const std::vector<int>* path;
  const pb::Op* op;
  pb::Worker* w;
  bool timed;
  std::uint64_t trail;  // keeps every tower function distinct and non-tail-calling
};

// Innermost lock sites: one per primitive and mode, plus the nested one.
[[gnu::noinline]] void NestedSite(Ctx& c) {
  const pb::Acq& a = c.op->second;
  TimedAcquire(*c.w, Internal(a.lock), a.shared, c.timed);
  Touch(Internal(a.lock), a.shared);
  Release(Internal(a.lock));
  c.trail += 1;
}

template <int Kind>
[[gnu::noinline]] void LockSite(Ctx& c) {
  const pb::Acq& a = c.op->first;
  TimedAcquire(*c.w, Internal(a.lock), a.shared, c.timed);
  Touch(Internal(a.lock), a.shared);
  if (c.op->nested) {
    NestedSite(c);
  }
  Release(Internal(a.lock));
  c.trail += Kind;
}

using StepFn = void (*)(Ctx&);

template <int L, int C>
[[gnu::noinline]] void Step(Ctx& c);

template <int L, std::size_t... C>
constexpr std::array<StepFn, kBranching> Row(std::index_sequence<C...>) {
  return {&Step<L, static_cast<int>(C)>...};
}
template <std::size_t... L>
constexpr std::array<std::array<StepFn, kBranching>, kLevels> Table(std::index_sequence<L...>) {
  return {Row<static_cast<int>(L)>(std::make_index_sequence<kBranching>{})...};
}
const std::array<std::array<StepFn, kBranching>, kLevels> kSteps =
    Table(std::make_index_sequence<kLevels>{});

template <int L, int C>
void Step(Ctx& c) {
  if constexpr (L + 1 < kLevels) {
    kSteps[L + 1][static_cast<std::size_t>((*c.path)[L + 1])](c);
  } else if (c.op->first.lock >= g.rwlocks_from) {
    if (c.op->first.shared) {
      LockSite<1>(c);
    } else {
      LockSite<2>(c);
    }
  } else {
    LockSite<3>(c);
  }
  c.trail = c.trail * 31 + static_cast<std::uint64_t>(L * kBranching + C + 7);
}

// The AB-BA pair. Its own chain of noinline frames, so the recorded
// signature's stacks (matched at depth 4) are the same in every
// incarnation that enters through AbbaEntry.
[[gnu::noinline]] void AbbaAcquire(pb::Worker& w, int lock, bool timed) {
  TimedAcquire(w, lock, false, timed);
  Touch(lock, false);
}

[[gnu::noinline]] void AbbaTake(pb::Worker& w, int first, int second, bool timed) {
  AbbaAcquire(w, first, timed);
  if (g.abba_hold_ns > 0) {
    const timespec hold{static_cast<time_t>(g.abba_hold_ns / 1000000000ull),
                        static_cast<long>(g.abba_hold_ns % 1000000000ull)};
    nanosleep(&hold, nullptr);
  }
  AbbaAcquire(w, second, timed);
  Release(second);
  Release(first);
}

[[gnu::noinline]] int AbbaEntry(pb::Worker& w, bool timed) {
  g.abba_attempted.fetch_add(1);
  const int a = static_cast<int>(g.mutexes.size());  // the pair's internal numbers: a, a + 1
  const bool forward = w.index == 0;
  AbbaTake(w, forward ? a : a + 1, forward ? a + 1 : a, timed);
  g.abba_done.fetch_add(1);
  return 2;
}

// The partner's op: wait for the next tick, then take the reverse side of
// the AB-BA pair. Its warm-up op (before the first tick) takes nothing.
int PartnerOp(pb::Worker& w, std::uint64_t i, bool timed) {
  if (g.abba_period_ns == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return 0;
  }
  const std::uint64_t tick = (pb::NowNs() - g.phase_start_ns) / g.abba_period_ns;
  if (i == 0 && tick == 0) {
    return 0;
  }
  const std::uint64_t next = g.phase_start_ns + (tick + 1) * g.abba_period_ns;
  for (std::uint64_t now = pb::NowNs(); now < next; now = pb::NowNs()) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
  }
  return AbbaEntry(w, timed);
}

int RunOp(pb::Worker& w, std::uint64_t i, bool timed) {
  if (w.index >= g.loop_workers) {
    return PartnerOp(w, i, timed);
  }
  if (w.index == 0 && g.abba_period_ns > 0) {
    thread_local std::uint64_t last_tick = 0;
    const std::uint64_t tick = (pb::NowNs() - g.phase_start_ns) / g.abba_period_ns;
    if (tick > last_tick) {
      last_tick = tick;
      return AbbaEntry(w, timed);
    }
  }
  const std::vector<pb::Op>& script = g.input->ops[static_cast<std::size_t>(w.index)];
  const pb::Op& op = script[i % script.size()];
  Ctx c{&g.input->paths[static_cast<std::size_t>(op.path)], &op, &w, timed, 0};
#ifdef PB_TRACED
  std::size_t op_span = 0;
  if (i % g_trace_every == 0) {
    if (t_log == nullptr) {
      t_log = g_span_logs.NewLog(static_cast<std::uint32_t>(w.index), pb::kSpanLogCapacity);
    }
    if (!t_log->full()) {
      t_spans = t_log;
      t_op = (static_cast<std::uint64_t>(w.index) << 48) | i;
      op_span = t_spans->Open(t_op, pb::kSpanOp, pb::NowNs());
    }
  }
#endif
  kSteps[0][static_cast<std::size_t>(c.path->at(0))](c);
#ifdef PB_TRACED
  if (t_spans != nullptr) {
    t_spans->Close(op_span, pb::NowNs());
    t_spans = nullptr;
  }
#endif
  return op.nested ? 2 : 1;
}

}  // namespace

namespace {

struct Args {
  std::string input;
  std::string mode = "run";
  double seconds = 1;
  bool hold = false;
  bool abba = true;
  std::string history;  // traced build: the runtime's history file
  std::string spans;    // traced build: where the span log goes
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        pb::Die("missing value for " + flag);
      }
      return argv[++i];
    };
    if (flag == "--input") {
      args.input = value();
    } else if (flag == "--mode") {
      args.mode = value();
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--hold") {
      args.hold = true;
    } else if (flag == "--no-abba") {
      args.abba = false;
    } else if (flag == "--history") {
      args.history = value();
    } else if (flag == "--spans") {
      args.spans = value();
    } else {
      pb::Die("unknown flag " + flag);
    }
  }
  if (args.input.empty() || (args.mode != "run" && args.mode != "setup" &&
                             args.mode != "immunize")) {
    pb::Die("usage: pb_native --input FILE --mode run|setup|immunize --seconds S ...");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const pb::Input input = pb::ReadInput(args.input);
  g.input = &input;
  g.rwlocks_from = static_cast<int>(input.Int("rwlocks_from"));
  g.loop_workers = static_cast<int>(input.Int("loop_workers"));
  if (g.rwlocks_from < 1 || input.Int("locks") != g.rwlocks_from + 1) {
    pb::Die("native input must name mutexes then exactly one rwlock");
  }
  for (const std::vector<int>& path : input.paths) {
    if (path.size() != kLevels) {
      pb::Die("native paths must have one choice per tower level");
    }
    for (int choice : path) {
      if (choice < 0 || choice >= kBranching) {
        pb::Die("tower choice out of range");
      }
    }
  }
  g.mutexes.resize(static_cast<std::size_t>(g.rwlocks_from));
  for (pthread_mutex_t& m : g.mutexes) {
    pthread_mutex_init(&m, nullptr);
  }
  const int internal_locks = g.rwlocks_from + 3;
  g.guarded = std::make_unique<Guarded[]>(static_cast<std::size_t>(internal_locks));

  int threads = static_cast<int>(input.Int("threads"));
  if (g.loop_workers != 1 || threads != 2) {
    pb::Die("native input must name one loop worker and its AB-BA partner");
  }
  double seconds = args.seconds;
  if (args.mode == "immunize") {
    // Worker 0 and the partner take the AB-BA pair at once, each sleeping
    // 100 ms between its two locks: a certain deadlock.
    g.abba_period_ns = 1;
    g.abba_hold_ns = 100'000'000;
    seconds = 3600;
  } else if (args.abba) {
    g.abba_period_ns = static_cast<std::uint64_t>(input.Int("abba_period_ms")) * 1'000'000;
    g.abba_hold_ns = static_cast<std::uint64_t>(input.Int("abba_hold_us")) * 1'000;
  }
  if (args.mode == "setup") {
    seconds = 0;
  }

#ifdef PB_TRACED
  dimmunix::Config config;
  config.history_path = args.history;
  // The traced run drives Monitor::RunOnce itself, at the default τ.
  config.start_monitor = args.mode != "run";
  dimmunix::Runtime runtime(config);
  g_rt = &runtime;
  dimmunix::obs::Recorder obs_recorder(dimmunix::obs::Recorder::Options{});
  g_obs = &obs_recorder;
  g_trace_every = static_cast<std::uint64_t>(input.Int("trace_every"));
  std::optional<pb::MonitorDriver> monitor;
  if (args.mode == "run") {
    monitor.emplace(runtime, g_span_logs, static_cast<std::uint32_t>(threads));
  }
#endif

  pb::Phase phase(threads, seconds, static_cast<int>(input.Int("rounds")),
                  static_cast<int>(input.Int("sample_every")));
  g.phase_start_ns = pb::NowNs();
  const pb::PhaseResult result = phase.Run(g.phase_start_ns, RunOp, [] {
    std::printf("ready\n");
    std::fflush(stdout);
  });

  std::uint64_t counter_sum = 0;
  for (int lock = 0; lock < internal_locks; ++lock) {
    const Guarded& counter = g.guarded[static_cast<std::size_t>(lock)];
    counter_sum += counter.exclusive + counter.shared.load();
  }
  pb::Json json;
  pb::AddPhase(json, "", result);
  json.Num("counter_sum", static_cast<double>(counter_sum))
      .Num("abba_attempted", static_cast<double>(g.abba_attempted.load()))
      .Num("abba_done", static_cast<double>(g.abba_done.load()))
      .Num("threads", threads)
      .Num("peak_rss_mb", pb::PeakRssMb())
      .Str("build_type", PB_BUILD_TYPE)
      .Str("sanitize", PB_SANITIZE);

#ifdef PB_TRACED
  monitor.reset();
  pb::AddCounters(json, {}, runtime.engine().stats().Snapshot(), {},
                  runtime.monitor().stats().Snapshot());
  json.Num("interned_stacks", static_cast<double>(runtime.stacks().size()))
      .Num("history_load_ms", pb::HistoryLoadMs(args.history, config.max_match_depth));
  if (!args.spans.empty()) {
    pb::AddSpans(json, pb::WriteSpans(g_span_logs.logs(), args.spans));
  }
#endif

  std::printf("%s\n", json.Text().c_str());
  std::fflush(stdout);
  if (args.hold) {
    // Keep the process (and, under LD_PRELOAD, its control socket) alive
    // until the harness has read the runtime's counters.
    for (std::string line; std::getline(std::cin, line);) {
    }
  }
  return 0;
}
