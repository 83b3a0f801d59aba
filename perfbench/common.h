// Helpers shared by the benchmark programs: the generated-input reader, the
// closed-loop phase runner (rounds, sampled latencies, ops counting), the
// in-memory span log of the traced runs, and a tiny JSON writer.
//
// Standard library only: native_tower.cc includes this in its plain pthread
// build, which must stay free of any Dimmunix linkage.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pb {

inline std::uint64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline void BusySpinNs(std::uint64_t ns) {
  if (ns == 0) {
    return;
  }
  const std::uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

[[noreturn]] inline void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

// One lock acquisition of an op: which lock, and shared ('s') or exclusive
// ('x'). An op is one or two acquisitions; a second one nests inside the
// first, always at a higher lock index (a fixed order, so no op deadlocks).
struct Acq {
  int lock = 0;
  bool shared = false;
};
struct Op {
  int path = 0;
  Acq first;
  bool nested = false;
  Acq second;
};

// The generated workload (written by perfbench/inputs.py from --seed; the
// programs never see the seed itself).
struct Input {
  std::map<std::string, std::string> kv;
  std::vector<std::vector<int>> paths;  // per path: tower choice per level
  std::vector<std::vector<Op>> ops;     // per worker thread: op script (cycled)
  std::vector<std::vector<std::vector<std::string>>> sigs;  // stacks of frame names

  long Int(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      Die("input lacks key '" + key + "'");
    }
    return std::stol(it->second);
  }
  const std::string& Str(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) {
      Die("input lacks key '" + key + "'");
    }
    return it->second;
  }
};

inline Acq ParseAcq(const std::string& lock, const std::string& mode) {
  if (mode != "s" && mode != "x") {
    Die("bad acquisition mode '" + mode + "'");
  }
  return Acq{std::stoi(lock), mode == "s"};
}

// Format (one record per line):
//   perfbench-input 1
//   <key> <value>                     scalar settings
//   path <c0> <c1> ...                tower choice per level
//   ops <thread> <path>:<lock>:<s|x>[:<lock2>:<s|x>] ...
//   sig <frame,frame,...> <frame,...> annotated signature, innermost first
inline Input ReadInput(const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    Die("cannot read input " + file);
  }
  Input input;
  std::string line;
  if (!std::getline(in, line) || line != "perfbench-input 1") {
    Die("not a perfbench input file: " + file);
  }
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "path") {
      std::vector<int> choices;
      for (int c = 0; fields >> c;) {
        choices.push_back(c);
      }
      input.paths.push_back(std::move(choices));
    } else if (key == "ops") {
      std::size_t thread = 0;
      fields >> thread;
      if (input.ops.size() <= thread) {
        input.ops.resize(thread + 1);
      }
      for (std::string token; fields >> token;) {
        std::vector<std::string> parts;
        std::stringstream split(token);
        for (std::string part; std::getline(split, part, ':');) {
          parts.push_back(part);
        }
        if (parts.size() != 3 && parts.size() != 5) {
          Die("bad op '" + token + "'");
        }
        Op op;
        op.path = std::stoi(parts[0]);
        op.first = ParseAcq(parts[1], parts[2]);
        if (parts.size() == 5) {
          op.nested = true;
          op.second = ParseAcq(parts[3], parts[4]);
        }
        input.ops[thread].push_back(op);
      }
    } else if (key == "sig") {
      std::vector<std::vector<std::string>> stacks;
      for (std::string stack; fields >> stack;) {
        std::vector<std::string> frames;
        std::stringstream split(stack);
        for (std::string frame; std::getline(split, frame, ',');) {
          frames.push_back(frame);
        }
        stacks.push_back(std::move(frames));
      }
      input.sigs.push_back(std::move(stacks));
    } else if (!key.empty()) {
      std::string value;
      fields >> value;
      input.kv[key] = value;
    }
  }
  const long threads = input.Int("threads");
  if (threads < 1 || static_cast<long>(input.ops.size()) != threads) {
    Die("input op scripts do not match its thread count");
  }
  for (const std::vector<Op>& script : input.ops) {
    for (const Op& op : script) {
      if (op.path < 0 || op.path >= static_cast<int>(input.paths.size())) {
        Die("op names an unknown path");
      }
      for (const Acq& acq : {op.first, op.second}) {
        if (acq.lock < 0 || acq.lock >= input.Int("locks")) {
          Die("op names an unknown lock");
        }
      }
    }
  }
  return input;
}

// --- Closed-loop phases ----------------------------------------------------
//
// A phase runs `threads` workers, each doing its op script in a closed loop
// for `seconds`, split into `rounds` equal rounds. Every `sample_every`-th
// acquisition is timed; each worker keeps a fixed-size uniform sample
// (reservoir) of its timed acquisitions per round, so memory does not grow
// with throughput. Each round yields its own throughput and percentiles;
// the phase reports the median over rounds, which damps disturbed rounds.

struct alignas(64) Worker {
  int index = 0;
  std::atomic<std::uint64_t> progress{0};  // completed acquisitions (watchdog view)
  std::atomic<bool> finished{false};
  int round = 0;
  std::vector<std::uint64_t> ops_by_round;
  std::vector<std::vector<std::uint64_t>> lat_by_round;  // reservoirs
  std::vector<std::uint64_t> timed_by_round;             // samples offered
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  std::uint64_t lat_sum_ns = 0;
  std::uint64_t lat_count = 0;
};

struct PhaseResult {
  double elapsed_s = 0;
  std::uint64_t ops = 0;  // completed acquisitions
  double ops_per_s = 0;   // median over rounds
  double p50_ns = 0;      // median over rounds of the round's percentile
  double p99_ns = 0;
  std::uint64_t samples = 0;         // timed acquisitions, all rounds
  std::uint64_t kept = 0;            // of which kept in the reservoirs
  std::uint64_t beyond_p99_min = 0;  // fewest kept samples above p99 in any round
  std::vector<double> round_rates;   // per round: ops/s, p50 and p99 ns
  std::vector<double> round_p50s;
  std::vector<double> round_p99s;
  double lock_mean_ns = 0;           // mean timed acquisition
  double setup_s = 0;                // phase start -> every worker did one op
};

inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// Nearest-rank percentile of a sorted vector.
inline std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  std::size_t rank = static_cast<std::size_t>(p / 100.0 * static_cast<double>(sorted.size()));
  rank = std::min(rank, sorted.size() - 1);
  return sorted[rank];
}

// `op(worker, op_index, timed)` performs one scripted op and returns the
// number of acquisitions it completed; when `timed` it records each
// acquisition's latency with Record().
//
// Watchdog: workers that have not finished kHangGraceNs after the phase
// ends are hung (a deadlock the engine failed to avoid). The phase then
// prints {"hung": 1, ...} with the ops completed so far and exits with
// kHungExit instead of joining threads that will never return.
inline constexpr std::uint64_t kHangGraceNs = 5'000'000'000ull;
inline constexpr int kHungExit = 3;
class Phase {
 public:
  // Rounds last at least kMinRoundS, so short phases get fewer rounds and
  // each round keeps enough samples beyond its p99.
  static constexpr double kMinRoundS = 0.5;

  Phase(int threads, double seconds, int max_rounds, int sample_every)
      : threads_(threads),
        seconds_(seconds),
        rounds_(std::clamp(static_cast<int>(seconds / kMinRoundS), 1, max_rounds)),
        sample_every_(sample_every) {}

  // Reservoir size per worker and round; the mean still covers every
  // sample. Reservoirs are allocated and touched up front, so the phase's
  // own memory does not depend on the throughput it measures.
  static constexpr std::size_t kReservoir = 4096;

  static void Record(Worker& w, std::uint64_t ns) {
    w.lat_sum_ns += ns;
    ++w.lat_count;
    if (w.round >= static_cast<int>(w.lat_by_round.size())) {
      return;  // warm-up or after the last round
    }
    const auto r = static_cast<std::size_t>(w.round);
    const std::uint64_t seen = ++w.timed_by_round[r];
    if (seen <= kReservoir) {
      w.lat_by_round[r][seen - 1] = ns;
      return;
    }
    // Algorithm R: every sample of the round is kept with equal chance.
    w.rng ^= w.rng << 13;
    w.rng ^= w.rng >> 7;
    w.rng ^= w.rng << 17;
    if (const std::uint64_t slot = w.rng % seen; slot < kReservoir) {
      w.lat_by_round[r][slot] = ns;
    }
  }

  // `on_ready` runs once every worker has completed its warm-up op.
  template <class OpFn>
  PhaseResult Run(std::uint64_t setup_start_ns, OpFn op,
                  const std::function<void()>& on_ready = [] {}) {
    std::vector<Worker> workers(static_cast<std::size_t>(threads_));
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads_; ++t) {
      Worker& w = workers[static_cast<std::size_t>(t)];
      w.index = t;
      w.ops_by_round.assign(static_cast<std::size_t>(rounds_) + 1, 0);
      w.lat_by_round.assign(static_cast<std::size_t>(rounds_),
                            std::vector<std::uint64_t>(kReservoir, 0));
      w.timed_by_round.assign(static_cast<std::size_t>(rounds_), 0);
      w.rng += static_cast<std::uint64_t>(t);
      pool.emplace_back([&, t] {
        Worker& self = workers[static_cast<std::size_t>(t)];
        self.round = rounds_;  // warm-up op lands in the discarded slot
        self.ops_by_round[static_cast<std::size_t>(rounds_)] += op(self, std::uint64_t{0}, false);
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        std::uint64_t done = 0;
        for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
          const int r = round_.load(std::memory_order_relaxed);
          self.round = r;
          const bool timed = sample_every_ > 0 && i % sample_every_ == 0;
          const int n = op(self, i, timed);
          self.ops_by_round[static_cast<std::size_t>(r)] += n;
          done += n;
          self.progress.store(done, std::memory_order_relaxed);
        }
        self.finished.store(true, std::memory_order_release);
      });
    }
    while (ready.load() < threads_) {
      std::this_thread::yield();
    }
    PhaseResult result;
    result.setup_s = static_cast<double>(NowNs() - setup_start_ns) / 1e9;
    on_ready();
    const std::uint64_t start = NowNs();
    round_.store(0);
    go.store(true, std::memory_order_release);
    std::vector<std::uint64_t> round_end(static_cast<std::size_t>(rounds_));
    const double round_ns = seconds_ * 1e9 / rounds_;
    for (int r = 0; r < rounds_; ++r) {
      const std::uint64_t until = start + static_cast<std::uint64_t>(round_ns * (r + 1));
      // One sleep per round keeps this thread off the workers' cores.
      for (std::uint64_t now = NowNs(); now < until; now = NowNs()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
      }
      round_end[static_cast<std::size_t>(r)] = NowNs();
      // An op counts toward the round it started in; ops started after the
      // last round closes land in the discarded slot.
      round_.store(r + 1);
    }
    stop.store(true);
    const std::uint64_t grace_end = NowNs() + kHangGraceNs;
    for (Worker& w : workers) {
      while (!w.finished.load(std::memory_order_acquire) && NowNs() < grace_end) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    int stuck = 0;
    std::uint64_t completed = 0;
    for (Worker& w : workers) {
      stuck += w.finished.load(std::memory_order_acquire) ? 0 : 1;
      completed += w.progress.load(std::memory_order_relaxed);
    }
    if (stuck > 0) {
      std::printf("{\"hung\": 1, \"stuck_workers\": %d, \"ops\": %llu}\n", stuck,
                  static_cast<unsigned long long>(completed));
      std::fflush(stdout);
      std::_Exit(kHungExit);
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
    result.elapsed_s = static_cast<double>(round_end.back() - start) / 1e9;
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> p99s;
    result.beyond_p99_min = ~std::uint64_t{0};
    std::uint64_t prev = start;
    for (int r = 0; r < rounds_; ++r) {
      std::uint64_t ops = 0;
      std::vector<std::uint64_t> lat;
      for (Worker& w : workers) {
        ops += w.ops_by_round[static_cast<std::size_t>(r)];
        const auto& src = w.lat_by_round[static_cast<std::size_t>(r)];
        const std::uint64_t seen = w.timed_by_round[static_cast<std::size_t>(r)];
        const auto kept = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(seen, kReservoir));
        lat.insert(lat.end(), src.begin(), src.begin() + kept);
        result.samples += seen;
      }
      const std::uint64_t end = round_end[static_cast<std::size_t>(r)];
      rates.push_back(static_cast<double>(ops) / (static_cast<double>(end - prev) / 1e9));
      prev = end;
      std::sort(lat.begin(), lat.end());
      p50s.push_back(static_cast<double>(Percentile(lat, 50)));
      const std::uint64_t p99 = Percentile(lat, 99);
      p99s.push_back(static_cast<double>(p99));
      const auto beyond = static_cast<std::uint64_t>(
          lat.end() - std::upper_bound(lat.begin(), lat.end(), p99));
      result.beyond_p99_min = std::min(result.beyond_p99_min, beyond);
      result.kept += lat.size();
    }
    std::uint64_t lat_sum = 0;
    std::uint64_t lat_count = 0;
    for (Worker& w : workers) {
      for (std::uint64_t n : w.ops_by_round) {
        result.ops += n;
      }
      lat_sum += w.lat_sum_ns;
      lat_count += w.lat_count;
    }
    result.ops_per_s = Median(rates);
    result.p50_ns = Median(p50s);
    result.p99_ns = Median(p99s);
    result.round_rates = std::move(rates);
    result.round_p50s = std::move(p50s);
    result.round_p99s = std::move(p99s);
    result.lock_mean_ns = lat_count == 0 ? 0 : static_cast<double>(lat_sum) / lat_count;
    return result;
  }

 private:
  const int threads_;
  const double seconds_;
  const int rounds_;
  const std::uint64_t sample_every_;
  std::atomic<int> round_{0};
};

// --- Spans -----------------------------------------------------------------
//
// The traced runs record one span around each call into a layer's public
// function. Spans of one op share its id; the op span is the parent of the
// rest. Logs are per thread, preallocated, and written out after the run.

enum SpanKind : std::uint8_t {
  kSpanOp,
  kSpanCapture,    // CaptureStack
  kSpanIntern,     // StackTable::Intern
  kSpanBegin,      // Runtime::BeginAcquire
  kSpanRawLock,    // the primitive's lock
  kSpanCommit,     // AcquireOp::Commit
  kSpanObs,        // obs::Recorder::Latency
  kSpanRelease,    // Runtime::EndRelease
  kSpanRawUnlock,  // the primitive's unlock
  kSpanMonitor,    // Monitor::RunOnce
  kSpanKinds,
};

inline const char* SpanName(int kind) {
  static const char* const kNames[kSpanKinds] = {
      "op",     "capture", "intern",  "begin",      "raw_lock",
      "commit", "obs",     "release", "raw_unlock", "monitor_pass"};
  return kNames[kind];
}

struct Span {
  std::uint64_t op = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t thread = 0;
  std::uint8_t kind = 0;
};

class SpanLog {
 public:
  SpanLog(std::uint32_t thread, std::size_t capacity) : thread_(thread) {
    spans_.reserve(capacity);
  }
  // Room for one more op's spans (logs never reallocate while recording).
  bool full() const { return spans_.size() + 2 * kSpanKinds > spans_.capacity(); }
  void Add(std::uint64_t op, SpanKind kind, std::uint64_t start, std::uint64_t end) {
    spans_.push_back(Span{op, start, end, thread_, kind});
  }
  // A parent span is opened before its children and closed after them, so
  // a log lists each op span ahead of the spans it covers.
  std::size_t Open(std::uint64_t op, SpanKind kind, std::uint64_t start) {
    spans_.push_back(Span{op, start, start, thread_, kind});
    return spans_.size() - 1;
  }
  void Close(std::size_t index, std::uint64_t end) { spans_[index].end = end; }
  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t captured_frames = 0;  // frames returned by the traced captures

 private:
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

// Spans per worker log: 8 MiB, enough for every sampled op of a phase.
inline constexpr std::size_t kSpanLogCapacity = std::size_t{1} << 18;

// Owns every thread's log, so logs outlive the threads that wrote them.
class SpanRegistry {
 public:
  SpanLog* NewLog(std::uint32_t thread, std::size_t capacity) {
    std::lock_guard<std::mutex> guard(m_);
    logs_.push_back(std::make_unique<SpanLog>(thread, capacity));
    return logs_.back().get();
  }
  // Call only after every writer thread has been joined.
  std::vector<const SpanLog*> logs() const {
    std::lock_guard<std::mutex> guard(m_);
    std::vector<const SpanLog*> out;
    for (const auto& log : logs_) {
      out.push_back(log.get());
    }
    return out;
  }

 private:
  mutable std::mutex m_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Per span kind: count, mean duration and mean self time (duration minus
// the part covered by child spans of the same op).
struct SpanStats {
  std::uint64_t count[kSpanKinds] = {};
  double total_ns[kSpanKinds] = {};
  double self_ns[kSpanKinds] = {};
  std::uint64_t captured_frames = 0;
  double Mean(int kind) const { return count[kind] == 0 ? 0 : total_ns[kind] / count[kind]; }
  double SelfMean(int kind) const { return count[kind] == 0 ? 0 : self_ns[kind] / count[kind]; }
};

// Writes every span as TSV (thread, op, span, start_ns, end_ns) and folds
// them into SpanStats. Child spans of an op never overlap one another.
inline SpanStats WriteSpans(const std::vector<const SpanLog*>& logs, const std::string& path) {
  SpanStats stats;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    Die("cannot write " + path);
  }
  std::fprintf(out, "thread\top\tspan\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    stats.captured_frames += log->captured_frames;
    const std::vector<Span>& spans = log->spans();
    std::size_t parent = spans.size();
    double children = 0;
    const auto close_parent = [&] {
      if (parent < spans.size()) {
        const Span& p = spans[parent];
        stats.self_ns[p.kind] += static_cast<double>(p.end - p.start) - children;
      }
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%u\t%llu\t%s\t%llu\t%llu\n", s.thread,
                   static_cast<unsigned long long>(s.op), SpanName(s.kind),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
      const double dur = static_cast<double>(s.end - s.start);
      ++stats.count[s.kind];
      stats.total_ns[s.kind] += dur;
      if (s.kind == kSpanOp) {
        close_parent();
        parent = i;
        children = 0;
      } else if (parent < spans.size() && spans[parent].op == s.op && s.kind != kSpanMonitor) {
        children += dur;
        stats.self_ns[s.kind] += dur;
      } else {
        stats.self_ns[s.kind] += dur;
      }
    }
    close_parent();
  }
  std::fclose(out);
  return stats;
}

// --- Output ----------------------------------------------------------------

// Peak resident set (VmHWM) of this process, in MiB.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

// Flat JSON object builder: numbers, number arrays and strings.
class Json {
 public:
  Json& Num(const std::string& key, double value) { return Raw(key, Format(value)); }
  Json& Nums(const std::string& key, const std::vector<double>& values) {
    std::string list;
    for (double v : values) {
      list += (list.empty() ? "" : ", ") + Format(v);
    }
    return Raw(key, "[" + list + "]");
  }
  Json& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  std::string Text() const { return "{" + body_ + "}"; }

 private:
  static std::string Format(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  }
  Json& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

inline void AddPhase(Json& json, const std::string& prefix, const PhaseResult& r) {
  json.Num(prefix + "ops", static_cast<double>(r.ops))
      .Num(prefix + "ops_per_s", r.ops_per_s)
      .Num(prefix + "p50_ns", r.p50_ns)
      .Num(prefix + "p99_ns", r.p99_ns)
      .Num(prefix + "samples", static_cast<double>(r.samples))
      .Num(prefix + "kept", static_cast<double>(r.kept))
      .Nums(prefix + "round_rates", r.round_rates)
      .Nums(prefix + "round_p50_ns", r.round_p50s)
      .Nums(prefix + "round_p99_ns", r.round_p99s)
      .Num(prefix + "beyond_p99_min", static_cast<double>(r.beyond_p99_min))
      .Num(prefix + "lock_mean_ns", r.lock_mean_ns)
      .Num(prefix + "elapsed_s", r.elapsed_s)
      .Num(prefix + "setup_s", r.setup_s);
}

inline void AddSpans(Json& json, const SpanStats& s) {
  for (int k = 0; k < kSpanKinds; ++k) {
    json.Num(std::string("span.") + SpanName(k) + ".count", static_cast<double>(s.count[k]))
        .Num(std::string("span.") + SpanName(k) + ".mean_ns", s.Mean(k))
        .Num(std::string("span.") + SpanName(k) + ".self_ns", s.SelfMean(k));
  }
  json.Num("span.captured_frames", static_cast<double>(s.captured_frames));
}

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
