// The traced acquisition path shared by pb_native_traced and pb_driver: the
// steps of an instrumented lock (the preload shim's and sync::Mutex's),
// made through the library's public functions, with one span around each
// call into a layer. Also the benchmark-driven monitor and the counter and
// history-load readouts of the traced runs.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <atomic>
#include <thread>

#include "common.h"
#include "src/core/runtime.h"
#include "src/obs/recorder.h"
#include "src/signature/history.h"
#include "src/stack/capture.h"

namespace pb {

// Captures and interns the stack once more (the engine does both inside
// BeginAcquire; these spans time them on their own), then runs the port:
// BeginAcquire, the raw lock, Commit. `obs` is the benchmark's own
// recorder: the obs span times one histogram Record without touching the
// runtime's histograms. With `log` null only the port and the raw lock run.
// False when the engine refused the acquisition (nothing is held then).
template <class RawLock>
bool TracedAcquire(dimmunix::Runtime& rt, dimmunix::obs::Recorder& obs, SpanLog* log,
                   std::uint64_t op_id, dimmunix::LockId id, bool shared, RawLock raw_lock) {
  const auto mode = shared ? dimmunix::AcquireMode::kShared : dimmunix::AcquireMode::kExclusive;
  if (log == nullptr) {
    dimmunix::AcquireOp op = rt.BeginAcquire(id, mode);
    if (!op.Granted()) {
      return false;
    }
    raw_lock();
    op.Commit();
    return true;
  }
  std::uint64_t t0 = NowNs();
  const std::vector<dimmunix::Frame> frames = dimmunix::CaptureStack();
  std::uint64_t t1 = NowNs();
  log->Add(op_id, kSpanCapture, t0, t1);
  log->captured_frames += frames.size();
  rt.stacks().Intern(frames);
  t0 = NowNs();
  log->Add(op_id, kSpanIntern, t1, t0);
  dimmunix::AcquireOp op = rt.BeginAcquire(id, mode);
  t1 = NowNs();
  log->Add(op_id, kSpanBegin, t0, t1);
  if (!op.Granted()) {
    return false;
  }
  raw_lock();
  t0 = NowNs();
  log->Add(op_id, kSpanRawLock, t1, t0);
  op.Commit();
  t1 = NowNs();
  log->Add(op_id, kSpanCommit, t0, t1);
  obs.Latency(dimmunix::obs::HistoKind::kAcquireLatency, t1 - t0);
  log->Add(op_id, kSpanObs, t1, NowNs());
  return true;
}

// EndRelease, then the raw unlock (release precedes the unlock, as in every
// adapter).
template <class RawUnlock>
void TracedRelease(dimmunix::Runtime& rt, SpanLog* log, std::uint64_t op_id,
                   dimmunix::LockId id, RawUnlock raw_unlock) {
  const std::uint64_t t0 = log != nullptr ? NowNs() : 0;
  rt.EndRelease(id);
  const std::uint64_t t1 = log != nullptr ? NowNs() : 0;
  raw_unlock();
  if (log != nullptr) {
    log->Add(op_id, kSpanRelease, t0, t1);
    log->Add(op_id, kSpanRawUnlock, t1, NowNs());
  }
}

// Drives Monitor::RunOnce every τ (the runtime's monitor_period) from a
// benchmark thread, with a span around each pass. The runtime must be built
// with start_monitor = false.
class MonitorDriver {
 public:
  MonitorDriver(dimmunix::Runtime& rt, SpanRegistry& logs, std::uint32_t log_id)
      : thread_([this, &rt, log = logs.NewLog(log_id, 1u << 14)] {
          for (std::uint64_t pass = 0; !stop_.load(); ++pass) {
            std::this_thread::sleep_for(rt.config().monitor_period);
            const std::uint64_t t0 = NowNs();
            rt.monitor().RunOnce();
            if (!log->full()) {
              log->Add(pass, kSpanMonitor, t0, NowNs());
            }
          }
        }) {}
  ~MonitorDriver() {
    stop_.store(true);
    thread_.join();
  }
  MonitorDriver(const MonitorDriver&) = delete;
  MonitorDriver& operator=(const MonitorDriver&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// Median wall time of History::Load on `path`, in ms, over five loads into
// fresh tables.
inline double HistoryLoadMs(const std::string& path, int max_depth) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    dimmunix::StackTable table(max_depth);
    dimmunix::History history(&table);
    const std::uint64_t t0 = NowNs();
    if (!history.Load(path) || history.size() == 0) {
      Die("cannot load a signature from " + path);
    }
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return Median(ms);
}

// Engine and monitor counters over a window (end - begin), under the names
// `dimctl stats` prints, so run.py reads in-process and preload runs alike.
inline void AddCounters(Json& json, const dimmunix::EngineStatsSnapshot& b,
                        const dimmunix::EngineStatsSnapshot& e,
                        const dimmunix::MonitorStatsSnapshot& mb,
                        const dimmunix::MonitorStatsSnapshot& me) {
  const auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  json.Num("engine.requests", d(e.requests, b.requests))
      .Num("engine.yields", d(e.yields, b.yields))
      .Num("engine.wakes", d(e.wakes, b.wakes))
      .Num("engine.yield_timeouts", d(e.yield_timeouts, b.yield_timeouts))
      .Num("engine.broken_acquisitions", d(e.broken_acquisitions, b.broken_acquisitions))
      .Num("engine.signatures_disabled", d(e.signatures_disabled, b.signatures_disabled))
      .Num("engine.epoch_entries", d(e.epoch_entries, b.epoch_entries))
      .Num("engine.epoch_stall_ns", d(e.epoch_stall_ns, b.epoch_stall_ns))
      .Num("engine.epoch_hold_ns", d(e.epoch_hold_ns, b.epoch_hold_ns))
      .Num("engine.match_fast_path", d(e.match_fast_path, b.match_fast_path))
      .Num("engine.match_slow_path", d(e.match_slow_path, b.match_slow_path))
      .Num("engine.match_fast_retries", d(e.match_fast_retries, b.match_fast_retries))
      .Num("monitor.batches", d(me.batches, mb.batches))
      .Num("monitor.events_processed", d(me.events_processed, mb.events_processed))
      .Num("monitor.deadlocks_detected", d(me.deadlocks_detected, mb.deadlocks_detected));
}

}  // namespace pb

#endif  // PERFBENCH_TRACED_H_
