// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/benchlib/trial.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace dimmunix {

TrialResult RunTrial(const std::function<int()>& body, Duration timeout) {
  TrialResult result;
  const MonoTime start = Now();
  const pid_t pid = fork();
  if (pid < 0) {
    return result;  // fork failure: reported as neither completed nor deadlocked
  }
  if (pid == 0) {
    // Child: lead a process group of its own, so that a timeout also kills
    // whatever the body forked. _exit (not exit) so no parent-owned atexit
    // handlers run twice.
    setpgid(0, 0);
    const int code = body();
    _exit(code);
  }
  // Also from the parent: whichever of the two runs first, the group exists
  // before the deadline can fire.
  setpgid(pid, pid);
  const MonoTime deadline = start + timeout;
  for (;;) {
    int status = 0;
    const pid_t done = waitpid(pid, &status, WNOHANG);
    if (done == pid) {
      result.completed = WIFEXITED(status);
      result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      result.elapsed = Now() - start;
      return result;
    }
    if (Now() >= deadline) {
      kill(-pid, SIGKILL);
      waitpid(pid, &status, 0);
      result.deadlocked = true;
      result.elapsed = Now() - start;
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::uint64_t PercentileNs(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) {
    rank = samples.size() - 1;
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank), samples.end());
  return samples[rank];
}

namespace {

// Minimal JSON string escaping (quotes, backslashes, control chars) —
// enough for benchmark labels and config values.
void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonDouble(double v) {
  // JSON has no NaN/Inf; clamp to 0 (a dead benchmark shows as zero
  // throughput, which bench-smoke treats as a failure).
  if (!(v == v) || v > 1e300 || v < -1e300) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string BenchReport::ToJson() const {
  std::string out;
  out += "{\n  \"bench\": ";
  AppendJsonString(&out, bench);
  out += ",\n  \"config\": {";
  for (std::size_t i = 0; i < config.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&out, config[i].first);
    out += ": ";
    AppendJsonString(&out, config[i].second);
  }
  out += config.empty() ? "},\n" : "\n  },\n";
  out += "  \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const BenchSample& s = samples[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"label\": ";
    AppendJsonString(&out, s.label);
    out += ", \"threads\": " + std::to_string(s.threads);
    out += ", \"throughput_ops_s\": " + JsonDouble(s.throughput_ops_s);
    out += ", \"ops\": " + std::to_string(s.ops);
    out += ", \"elapsed_s\": " + JsonDouble(s.elapsed_s);
    out += ", \"p50_ns\": " + std::to_string(s.p50_ns);
    out += ", \"p99_ns\": " + std::to_string(s.p99_ns);
    out += ", \"p99_p50_ratio\": " + JsonDouble(s.TailRatio());
    out += ", \"yields\": " + std::to_string(s.yields);
    if (s.retries_per_op >= 0) {
      out += ", \"retries_per_op\": " + JsonDouble(s.retries_per_op);
    }
    out += "}";
  }
  out += samples.empty() ? "],\n" : "\n  ],\n";
  out += "  \"p50_ns\": " + std::to_string(p50_ns) + ",\n";
  out += "  \"p99_ns\": " + std::to_string(p99_ns) + ",\n";
  if (p50_ns > 0) {
    out += "  \"p99_p50_ratio\": " +
           JsonDouble(static_cast<double>(p99_ns) / static_cast<double>(p50_ns)) + ",\n";
  }
  if (p99_budget_ns > 0) {
    out += "  \"p99_budget_ns\": " + std::to_string(p99_budget_ns) + ",\n";
  }
  if (tail_budget_ratio > 0) {
    out += "  \"tail_budget_ratio\": " + JsonDouble(tail_budget_ratio) + ",\n";
  }
  out += "  \"throughput_ops_s\": " + JsonDouble(throughput_ops_s) + "\n}\n";
  return out;
}

bool BenchReport::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      return false;
    }
    out << ToJson();
    if (!out.good()) {
      return false;
    }
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace dimmunix
