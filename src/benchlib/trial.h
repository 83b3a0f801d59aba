// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Trial and measurement harness for the paper-reproduction benchmarks.
//
// Two halves:
//
//  * Fork-isolated trials. §7.1.1 runs each exploit repeatedly: the
//    unprotected configurations deadlock (the process hangs and must be
//    killed), the immunized configuration completes. Deadlock recovery is
//    "most likely done via restart" (§3) — fork-per-trial reproduces exactly
//    that lifecycle, and the persistent history file carries the immunity
//    from one trial (process incarnation) to the next.
//
//  * Machine-readable perf reports. Benchmarks used to print human tables
//    only, so no tooling could track regressions. BenchReport captures one
//    benchmark run — per-configuration samples plus aggregate p50/p99
//    acquisition latency and throughput — and serializes it as the
//    BENCH_<name>.json schema consumed by CI's bench-smoke job:
//
//      {"bench": "fig5", "config": {...}, "samples": [...],
//       "p50_ns": ..., "p99_ns": ..., "throughput_ops_s": ...}

#ifndef DIMMUNIX_BENCHLIB_TRIAL_H_
#define DIMMUNIX_BENCHLIB_TRIAL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/clock.h"

namespace dimmunix {

struct TrialResult {
  bool completed = false;   // child exited on its own
  bool deadlocked = false;  // child had to be killed (timeout)
  int exit_code = -1;
  Duration elapsed{};
};

// Forks; the child runs `body` in a process group of its own and exits with
// its return value. The parent waits up to `timeout`, killing the child's
// whole process group (SIGKILL) if the child is still alive — which the
// caller interprets as a deadlock.
TrialResult RunTrial(const std::function<int()>& body, Duration timeout);

// --- Machine-readable perf reports ------------------------------------------

// The percentile of an (unsorted) latency sample set, nearest-rank method.
// Returns 0 on an empty set. `q` in [0, 1] (0.5 = p50, 0.99 = p99).
std::uint64_t PercentileNs(std::vector<std::uint64_t> samples, double q);

// One measured configuration of a benchmark (one point on a figure curve).
struct BenchSample {
  std::string label;        // e.g. "dimmunix" / "baseline" / "instr"
  int threads = 0;
  double throughput_ops_s = 0.0;
  std::uint64_t ops = 0;
  double elapsed_s = 0.0;
  std::uint64_t p50_ns = 0;  // sampled acquisition latency percentiles
  std::uint64_t p99_ns = 0;
  std::uint64_t yields = 0;
  // Fast-path cover revalidations per lock op (match_fast_retries / ops).
  // The churn signal the match_churn health rule alerts on; negative =
  // not measured (baseline samples have no engine). Emitted in the JSON
  // only when set, so committed pre-existing reports stay valid.
  double retries_per_op = -1.0;

  // Tail ratio: how many medians deep the p99 sits. The number the
  // bench-smoke tail gate budgets — a convoy (epoch or otherwise) shows up
  // here before it moves the throughput needle.
  double TailRatio() const {
    return p50_ns > 0 ? static_cast<double>(p99_ns) / static_cast<double>(p50_ns) : 0.0;
  }
};

// One benchmark run. `config` keys/values land verbatim in the JSON config
// object (values are emitted as JSON strings).
struct BenchReport {
  std::string bench;  // "fig5", "fig8"
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<BenchSample> samples;
  // Aggregates: the headline numbers CI tracks across commits. Callers set
  // them from the representative sample (benchjson uses the instrumented
  // run at the highest thread count).
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  double throughput_ops_s = 0.0;
  // The committed tail-latency budget for this benchmark: CI's bench-smoke
  // gate fails when a run's p99_ns exceeds it. 0 = no gate. Budgets are
  // deliberately loose (~10x the committed p99) — they catch convoy-class
  // regressions, not scheduler noise.
  std::uint64_t p99_budget_ns = 0;
  // Tail-ratio budget (p99 ≤ budget × p50) enforced per instrumented sample
  // by scripts/bench_gate.py — but only for samples whose thread count is at
  // most 2×cpus. Beyond that the run queue is oversubscribed and a sampled
  // p99 measures kernel wake-to-run latency of parked yielders, not engine
  // behavior (see docs/performance.md). 0 = no ratio gate.
  double tail_budget_ratio = 0.0;

  std::string ToJson() const;
  // Atomically writes ToJson() to `path` (tmp + rename). Returns false on
  // I/O failure.
  bool WriteFile(const std::string& path) const;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_BENCHLIB_TRIAL_H_
