#!/usr/bin/env python3
"""The repository benchmark: two lock workloads driven from outside the
library, timed end to end (--trace 0) and layer by layer (--trace 1). A
traced run also measures the interpose layer: a plain pthread program run
under LD_PRELOAD.

  python3 perfbench/run.py --workload annotated_fastpath|avoid_contended \
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest      # must fail: AB-BA without immunity

Builds perfbench/CMakeLists.txt (which builds the library from this source
tree) into .bench_build/, generates the workload's inputs from --seed,
runs it, checks its outputs, and prints every metric by name with its unit.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exits 0 only when every correctness check passed. See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The measured time of an untraced run is split over processes of about
# PROCESS_S seconds each, and the metrics are medians over them: how fast a
# process runs also depends on where it lands (its cores and their
# neighbours), and one process per run would carry that draw into the run's
# figures.
PROCESS_S = 2.0
DRIVER_SETUPS = 3  # in-process set-ups per measured driver process


def processes(seconds):
    return max(1, round(seconds / PROCESS_S))
GRACE_S = 25  # watchdog slack beyond a process's own expected run time


class BenchError(Exception):
    """The benchmark could not run (build, environment, harness)."""


# --- build and provenance ---------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources beside {HERE.name}/ to build")
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = _cache_value(cache, "CMAKE_BUILD_TYPE")
    sanitize = _cache_value(cache, "DIMMUNIX_SANITIZE")
    if build_type.lower() == "debug" or sanitize:
        raise BenchError(f"refusing to time a {build_type or 'unoptimized'} build "
                         f"(DIMMUNIX_SANITIZE='{sanitize}'); remove {BUILD.name}/ to rebuild")
    return {"build_type": build_type, "sanitize": sanitize}


def _cache_value(cache, key):
    match = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
    return match.group(1).strip() if match else ""


def source_digest():
    """Digest of the library sources and build files this run compiled."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(p for d in ("src", "tools", "examples", "perfbench")
                                               for p in (ROOT / d).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


# --- processes --------------------------------------------------------------

def binary(name):
    sub = {"pb_native", "pb_native_traced", "pb_driver"}
    return str(BUILD / name) if name in sub else str(BUILD / "dimmunix" / name)


def preload_env(history, control=None):
    env = dict(os.environ)
    env = {k: v for k, v in env.items() if not k.startswith("DIMMUNIX_")}
    env["LD_PRELOAD"] = binary("libdimmunix_preload.so")
    env["DIMMUNIX_HISTORY"] = history
    if control:
        env["DIMMUNIX_CONTROL"] = control
    return env


def clean_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("DIMMUNIX_") and k != "LD_PRELOAD"}


class Proc:
    """A child process whose stdout lines are read against deadlines. Its
    stderr goes to a file (the runtime logs a line per avoidance, which
    would fill a pipe). Killed and reaped on every exit path."""

    def __init__(self, args, cwd, env, hold_stdin=False):
        self.err_path = Path(cwd) / f"stderr-{time.monotonic_ns()}.log"
        with open(self.err_path, "wb") as err:
            self.p = subprocess.Popen(
                args, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.PIPE if hold_stdin else subprocess.DEVNULL,
                start_new_session=True)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.p.stdout, selectors.EVENT_READ)
        self.buf = b""
        self.eof = False

    def readline(self, deadline):
        """Next stdout line, or None at EOF or when the deadline passes."""
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if self.eof or left <= 0 or not self.sel.select(timeout=left):
                return None
            chunk = os.read(self.p.stdout.fileno(), 1 << 16)
            self.eof = not chunk
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def finish(self, deadline):
        """Closes stdin, drains stdout, waits for exit; kills the process
        group on timeout. Returns (exit code or None if killed, stderr)."""
        if self.p.stdin:
            self.p.stdin.close()
        while self.readline(deadline) is not None:
            pass
        try:
            code = self.p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        self.kill()
        return code, self.err_path.read_text(errors="replace")[-2000:]

    def kill(self):
        if self.p.stdout.closed:
            return
        try:
            os.killpg(self.p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.p.wait()
        self.sel.close()
        self.p.stdout.close()


def run_to_end(args, cwd, env, expect_s, workers, hold_stdin=False, on_result=None):
    """Runs a program to completion under the watchdog. Returns (result
    dict, setup seconds from spawn to its "ready" line). A program that
    hangs past expect_s + GRACE_S is killed and reported as hung, with all
    its `workers` stuck."""
    start = time.monotonic()
    deadline = start + expect_s + GRACE_S
    proc = Proc(args, cwd, env, hold_stdin)
    try:
        ready_s = None
        result = None
        while result is None:
            line = proc.readline(deadline)
            if line is None:
                break
            if line == "ready" and ready_s is None:
                ready_s = time.monotonic() - start
            elif line.startswith("{"):
                result = json.loads(line)
        if result is not None and on_result is not None and "hung" not in result:
            on_result(result)
        code, err = proc.finish(deadline)
    finally:
        proc.kill()
    if result is None:
        if code is None:
            # Killed by the harness watchdog: every worker's op is lost.
            return {"hung": 1, "stuck_workers": workers, "ops": 0}, ready_s
        raise BenchError(f"{Path(args[0]).name} exited {code} without a result: {err.strip()}")
    if "hung" not in result and code != 0:
        raise BenchError(f"{Path(args[0]).name} exited {code}: {err.strip()}")
    return result, ready_s


def immunize(program, input_file, work, history, env, extra=()):
    """The immunize incarnation: forces the AB-BA deadlock, waits until the
    runtime has recorded the signature, then kills the deadlocked process."""
    proc = Proc([program, "--input", input_file, "--mode", "immunize", "--seconds", "0",
                 *extra], work, env)
    deadline = time.monotonic() + 20
    try:
        while time.monotonic() < deadline:
            time.sleep(0.05)
            out = subprocess.run([binary("history_tool"), "validate", history], cwd=work,
                                 capture_output=True, text=True)
            if out.returncode == 0 and re.search(r"\b[1-9]\d* signature", out.stdout):
                return
            if proc.p.poll() is not None:
                break
        raise BenchError("the immunize incarnation recorded no signature")
    finally:
        proc.kill()


def dimctl(work, sock, *command):
    out = subprocess.run([binary("dimctl"), "-s", sock, *command], cwd=work,
                         capture_output=True, text=True, timeout=30)
    if out.returncode != 0:
        raise BenchError(f"dimctl {' '.join(command)} failed: {out.stderr.strip()}")
    return dict(re.findall(r"^([\w.]+)=(\S+)$", out.stdout, re.M)), out.stdout


def validate_history(work, history):
    out = subprocess.run([binary("history_tool"), "validate", history], cwd=work,
                         capture_output=True, text=True)
    return out.returncode == 0, (out.stdout + out.stderr).strip()


# --- workloads --------------------------------------------------------------

class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.checks = []      # (name, ok, detail)
        self.flags = []       # steadiness warnings: the run changed mid-way
        self.attempted = 0
        self.failed = 0
        self.metrics = {}     # name -> (value, unit)
        self.info = {}        # extra readouts, printed and saved, not judged
        self.raw = {}         # each program's own result, saved

    def check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def account(self, result, counters, prefix=""):
        """Failure accounting for one phase: broken and refused acquisitions,
        yield-bound expiries, and one lost op per worker stuck in a hang."""
        hung = int(result.get("hung", 0))
        stuck = int(result.get("stuck_workers", 0)) if hung else 0
        refused = int(result.get("failed", 0))
        expired = int(float(counters.get("engine.yield_timeouts", 0)))
        broken = int(float(counters.get("engine.broken_acquisitions", 0)))
        ops = int(result.get("ops", 0))
        self.attempted += ops + refused + stuck
        self.failed += refused + expired + stuck + broken
        self.check(f"{prefix}no hang", not hung,
                   f"{stuck} worker(s) stuck after {ops} ops" if hung else "")
        if hung:
            return False
        self.check(f"{prefix}counters sum to ops", result["counter_sum"] == result["ops"],
                   f"{result['counter_sum']:.0f} vs {result['ops']:.0f}")
        self.check(f"{prefix}no broken/refused acquisition", broken == 0 and refused == 0,
                   f"broken={broken} refused={refused}")
        self.check(f"{prefix}no yield-bound expiry", expired == 0, f"yield_timeouts={expired}")
        if result.get("samples", 0) > 0 and result["beyond_p99_min"] < 10:
            self.flags.append(f"{prefix}a round has fewer than 10 latency samples beyond p99")
        if int(float(counters.get("engine.signatures_disabled", 0))) > 0:
            self.flags.append(f"{prefix}a signature was auto-disabled mid-run "
                              "(auto_disable_aborts): the workload changed")
        return True


def num(d, key):
    return float(d.get(key, 0))


SUMMED = ("ops", "counter_sum", "failed", "samples", "kept", "toggles")


def combine(parts):
    """One result from those of the measured processes: counts add up, the
    fewest-of figures take the minimum, lists are joined, strings are the
    first process's, and every other number (rates, latencies, memory) is
    the median over the processes."""
    hung = [p for p in parts if "hung" in p]
    if hung:
        return {"hung": 1, "stuck_workers": sum(p["stuck_workers"] for p in hung),
                "ops": sum(p["ops"] for p in parts)}
    out = {}
    for key, first in parts[0].items():
        values = [p[key] for p in parts]
        if isinstance(first, list):
            out[key] = [v for value in values for v in value]
        elif key in SUMMED or key.startswith(("engine.", "monitor.")):
            out[key] = sum(float(v) for v in values)
        elif isinstance(first, str):
            out[key] = first
        elif key in ("beyond_p99_min", "signatures"):
            out[key] = min(values)
        else:
            out[key] = statistics.median(float(v) for v in values)
    return out


def run_native(out, work, seed, seconds, withhold_history):
    """The preloaded native program, the interpose layer's measurement: an
    immunize incarnation records the AB-BA signature, then one run under the
    shim, its traced twin and the raw baseline, checked, giving the
    interpose.* metrics. With the history withheld (--selftest) the run
    under the shim must hang. Returns the digest of the generated input."""
    text = inputs.generate("native", seed)
    input_file = str(Path(work) / "native-input.txt")
    Path(input_file).write_text(text)
    workers = inputs.settings(text)["threads"]
    hist, sock = "native.hist", "control.sock"
    if not withhold_history:
        immunize(binary("pb_native"), input_file, work, hist, preload_env(hist))
    stats = {}

    def scrape(_):
        stats.update(dimctl(work, sock, "stats")[0])
        history = dimctl(work, sock, "history")[1]
        stats["history.disabled"] = len(re.findall(r"disabled=1", history))

    result, _ = run_to_end(
        [binary("pb_native"), "--input", input_file, "--mode", "run", "--seconds", str(seconds),
         "--hold"], work, preload_env(hist, sock), seconds, workers, hold_stdin=True,
        on_result=scrape)
    out.raw.update(native=result, native_dimctl=stats)
    if out.account(result, stats, "native: "):
        out.check("native: every AB-BA op completed",
                  result["abba_done"] == result["abba_attempted"] > 0,
                  f"{result['abba_done']:.0f} of {result['abba_attempted']:.0f}")
        out.check("native: no deadlock detected", num(stats, "monitor.deadlocks_detected") == 0)
        if result["abba_attempted"] >= 10:
            out.check("native: AB-BA instances avoided", num(stats, "engine.yields") > 0,
                      f"yields={num(stats, 'engine.yields'):.0f}")
        if stats.get("history.disabled"):
            out.flags.append("native: a signature is disabled in the history")
    ok, detail = validate_history(work, hist)
    out.check("native: history_tool validate", ok, detail)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    if "hung" in result or withhold_history:
        return digest

    # Traced twin (in-process port calls), with its own immunize incarnation
    # since its stacks are its own binary's; then the raw baseline, without
    # the AB-BA pair (no immunity there).
    hist_t, spans = "traced.hist", str(spans_path("native"))
    immunize(binary("pb_native_traced"), input_file, work, hist_t, clean_env(),
             ["--history", hist_t])
    traced, _ = run_to_end([binary("pb_native_traced"), "--input", input_file, "--mode", "run",
                            "--seconds", str(seconds / 2), "--history", hist_t, "--spans", spans],
                           work, clean_env(), seconds / 2, workers)
    raw, _ = run_to_end([binary("pb_native"), "--input", input_file, "--mode", "run",
                         "--seconds", str(seconds / 2), "--no-abba"], work, clean_env(),
                        seconds / 2, workers)
    out.raw.update(native_traced=traced, native_raw=raw)
    for prefix, phase in (("native traced: ", traced), ("native raw: ", raw)):
        out.account(phase, phase if phase is traced else {}, prefix)
    if "hung" in traced or "hung" in raw:
        return digest
    per = lambda a, b: a / b if b else 0.0  # noqa: E731
    captures = traced["span.capture.count"]
    out.metrics.update({
        "interpose.ops_per_s": (result["ops_per_s"], "ops/s"),
        "interpose.lock_ns": (result["lock_mean_ns"], "ns"),
        "interpose.capture_ns": (traced["span.capture.self_ns"], "ns"),
        "interpose.frames_per_capture": (per(traced["span.captured_frames"], captures), "count"),
        "interpose.yields_per_kop": (1000 * num(stats, "engine.yields") / max(1, result["ops"]),
                                     "1/kop"),
        "interpose.overhead_x": (per(raw["ops_per_s"], result["ops_per_s"]), "x"),
    })
    out.info["native.abba_attempted"] = result["abba_attempted"]
    return digest


def run_annotated(out, work, input_file, seconds, trace, workload, settings):
    hist = "annotated.hist"
    workers = settings["threads"]
    made, _ = run_to_end([binary("pb_driver"), "write-history", "--input", input_file, "--out",
                          hist], work, clean_env(), 0, workers)
    args = [binary("pb_driver"), "run", "--input", input_file, "--history", hist]
    if trace:
        runs = [args + ["--seconds", str(seconds / 2), "--setups", "1",
                        "--trace-seconds", str(seconds / 4),
                        "--spans", str(spans_path(workload))]]
        run_s = seconds
    else:
        run_s = seconds / processes(seconds)
        runs = [args + ["--seconds", str(run_s), "--setups", str(DRIVER_SETUPS)]] * processes(seconds)
    results = []
    for run in runs:
        results.append(run_to_end(run, work, clean_env(), run_s + 30, workers)[0])
        if "hung" in results[-1]:
            break
    result = combine(results)
    out.raw["run"] = results
    if out.account(result, result):
        out.check("every generated signature loaded",
                  result["signatures"] == made["signatures"] > 0,
                  f"{result['signatures']:.0f} of {made['signatures']}")
        out.check("no deadlock detected", result["monitor.deadlocks_detected"] == 0)
        if workload == "annotated_fastpath":
            # No signature can be instantiated by this workload's stacks.
            out.check("no avoidance yield", result["engine.yields"] == 0,
                      f"yields={result['engine.yields']:.0f}")
        if settings["toggle_signature"] >= 0 and seconds >= 1:
            out.check("signature toggles ran", result["toggles"] > 0)
    ok, detail = validate_history(work, hist)
    out.check("history_tool validate", ok, detail)
    if "hung" in result:
        return
    out.info.update({"signatures": result["signatures"],
                     "avoidances": result["engine.yields"],
                     "acquire_p99_samples": result["samples"],
                     "acquire_p99_beyond_min": result["beyond_p99_min"],
                     "round_ops_per_s_min": min(result["round_rates"]),
                     "round_ops_per_s_max": max(result["round_rates"])})
    if not trace:
        e2e(out, result, result["setups_s"])
        return
    traced = {k[len("traced."):]: v for k, v in result.items() if k.startswith("traced.")}
    traced.update({k: v for k, v in result.items() if k.startswith("span.")})
    raw = {k[len("raw."):]: v for k, v in result.items() if k.startswith("raw.")}
    for prefix, phase in (("traced: ", traced), ("raw: ", raw)):
        out.account(phase, {}, prefix)
    layers(out, result, result, traced, raw, park=(result["park_p50_ns"], result["park_p99_ns"]),
           interned=result["interned_stacks"], history_load_ms=result["history_load_ms"],
           workers=settings["threads"])


def spans_path(workload):
    path = BUILD / "spans"
    path.mkdir(exist_ok=True)
    return path / f"{workload}.tsv"


# --- metrics ----------------------------------------------------------------

def e2e(out, result, setups):
    setups = sorted(s for s in setups if s is not None)
    out.metrics.update({
        "ops_per_s": (result["ops_per_s"], "ops/s"),
        "acquire_p50_ns": (result["p50_ns"], "ns"),
        "acquire_p99_ns": (result["p99_ns"], "ns"),
        "setup_s": (setups[len(setups) // 2], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    })


def layers(out, result, counters, traced, raw, park, interned, history_load_ms, workers):
    """Per-layer metrics: counters from the untraced run, span self times
    from the traced run, reference numbers from the raw run."""
    ops = max(1.0, result["ops"])
    c = {k: num(counters, k) for k in (
        "engine.requests", "engine.yields", "engine.wakes", "engine.yield_timeouts",
        "engine.epoch_entries", "engine.epoch_stall_ns", "engine.epoch_hold_ns",
        "engine.match_fast_path", "engine.match_slow_path", "engine.match_fast_retries",
        "monitor.events_processed")}
    scans = c["engine.match_fast_path"] + c["engine.match_slow_path"]
    per = lambda a, b: a / b if b else 0.0  # noqa: E731
    span = lambda kind, what="self_ns": traced.get(f"span.{kind}.{what}", 0.0)  # noqa: E731
    # Share of the untraced per-acquisition time (threads / throughput)
    # accounted for by the steps every acquisition takes: the port calls and
    # the primitive. capture, intern and obs spans re-time work begin already
    # covers, so they are left out of the sum.
    acquisitions = span("begin", "count")
    step_ns = sum(span(k, "mean_ns") * span(k, "count")
                  for k in ("begin", "raw_lock", "commit", "release", "raw_unlock"))
    per_acq_ns = per(workers * 1e9, result["ops_per_s"])
    m = {
        "stack.capture_ns": (span("capture"), "ns"),
        "stack.frames_per_capture": (per(traced.get("span.captured_frames", 0),
                                         span("capture", "count")), "count"),
        "stack.intern_ns": (span("intern"), "ns"),
        "stack.interned_stacks": (interned, "count"),
        "core.begin_ns": (span("begin"), "ns"),
        "core.commit_ns": (span("commit"), "ns"),
        "core.release_ns": (span("release"), "ns"),
        "core.decide_self_ns": (span("begin") - span("capture") - span("intern"), "ns"),
        "core.fast_reject_ratio": (per(c["engine.requests"] - scans, c["engine.requests"]),
                                   "ratio"),
        "core.scans_per_kop": (1000 * scans / ops, "1/kop"),
        "core.yield_useful_ratio": (per(c["engine.yields"], scans), "ratio"),
        "core.retries_per_op": (c["engine.match_fast_retries"] / ops, "1/op"),
        "core.slow_path_per_kop": (1000 * c["engine.match_slow_path"] / ops, "1/kop"),
        "core.epoch_entries": (c["engine.epoch_entries"], "count"),
        "core.epoch_stall_ns": (per(c["engine.epoch_stall_ns"], c["engine.epoch_entries"]), "ns"),
        "core.epoch_hold_ns": (per(c["engine.epoch_hold_ns"], c["engine.epoch_entries"]), "ns"),
        "core.yields_per_kop": (1000 * c["engine.yields"] / ops, "1/kop"),
        "core.park_p50_ns": (park[0], "ns"),
        "core.park_p99_ns": (park[1], "ns"),
        "core.wakes_per_yield": (per(c["engine.wakes"], c["engine.yields"]), "ratio"),
        "core.yield_timeouts": (c["engine.yield_timeouts"], "count"),
        "core.monitor_pass_ns": (span("monitor_pass", "mean_ns"), "ns"),
        "event.queued_per_kop": (1000 * c["monitor.events_processed"] / ops, "1/kop"),
        "obs.record_ns": (span("obs"), "ns"),
        "persist.history_load_ms": (history_load_ms, "ms"),
        "sync.lock_ns": (result["lock_mean_ns"], "ns"),
        "raw.lock_ns": (raw["lock_mean_ns"], "ns"),
        "baseline.raw_ops_s": (raw["ops_per_s"], "ops/s"),
        "baseline.overhead_x": (per(raw["ops_per_s"], result["ops_per_s"]), "x"),
        "trace.overhead_pct": (100 * (per(result["ops_per_s"], traced["ops_per_s"]) - 1), "%"),
        "trace.span_share": (per(per(step_ns, acquisitions), per_acq_ns), "ratio"),
    }
    out.metrics.update(m)
    out.info["trace.spans"] = span("op", "count")


# --- main -------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="the preloaded native program with the immunity history withheld: "
                         "must fail")
    args = ap.parse_args()
    if not args.workload and not args.selftest:
        ap.error("--workload is required")

    try:
        provenance = build()
        name = "selftest" if args.selftest else args.workload
        work = BUILD / "runs" / f"{name}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        provenance.update({
            "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            "source_digest": source_digest(), "selftest": args.selftest})
        out = Outcome()
        try:
            if args.selftest:
                provenance["native_input_digest"] = run_native(
                    out, str(work), args.seed, args.seconds, withhold_history=True)
            else:
                text = inputs.generate(args.workload, args.seed)
                input_file = str(work / "input.txt")
                Path(input_file).write_text(text)
                settings = inputs.settings(text)
                provenance.update({"threads": settings["threads"],
                                   "input_digest": hashlib.sha256(text.encode()).hexdigest()[:16]})
                run_annotated(out, str(work), input_file, args.seconds, args.trace,
                              args.workload, settings)
                if args.trace:
                    # The interpose layer: the preloaded native program, as
                    # per-layer metrics of every traced run.
                    provenance["native_input_digest"] = run_native(
                        out, str(work), args.seed, args.seconds / 4, withhold_history=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        # No result line: the benchmark itself could not run.
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    correct = all(ok for _, ok, _ in out.checks) and out.failed == 0
    fail_ratio = out.failed / max(1, out.attempted)
    if not args.trace and "ops_per_s" in out.metrics:
        out.metrics["completed_ratio"] = (1 - fail_ratio, "ratio")
    print("provenance " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    for name, ok, detail in out.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for flag in out.flags:
        print(f"flag {flag}")
    if args.selftest:
        print("selftest: " + ("the checks did NOT trip: they cannot catch a lost immunity"
                              if correct else "the checks tripped, as required"))
    for key, value in out.info.items():
        print(f"info {key} = {value:g}")
    print(f"metric fail_ratio = {fail_ratio:.6g} ratio  ({out.failed} of {out.attempted})")
    for name, (value, unit) in out.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    report = {"correct": correct, "attempted": out.attempted, "failed": out.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "provenance": provenance, "info": out.info,
                    "checks": out.checks, "flags": out.flags, "raw": out.raw}, indent=1))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
