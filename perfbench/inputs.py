"""Seeded input generation for the perfbench workloads.

`generate(workload, seed)` returns the text of one input file (format in
common.h). The seed alone decides every generated choice: call-tower paths,
each worker's lock sequence and modes, and the signature sets. The programs
receive only this file, never the seed, so the file's digest identifies a
run's inputs.
"""

import itertools
import random
import re

THREADS = 3  # nproc - 1 on the 4-vCPU reference host: one core stays free for the runtime's own threads
# The native program: one worker in the closed loop, plus a partner thread that
# only takes the reverse side of the AB-BA pair. Under the shim every capture
# runs under the loader lock, so concurrent workers form a convoy whose
# hand-off order (fair or not) is settled per process and halves or doubles
# the median latency from one run to the next.
NATIVE_THREADS, NATIVE_LOOP_WORKERS = 2, 1
SCRIPT_OPS = 8192  # ops per worker script; workers cycle through it


def _zipf_picker(rng, n, skew=1.0):
    """Returns a sampler over range(n) whose ranks follow a Zipf-like law,
    with the rank order itself a seeded permutation."""
    order = list(range(n))
    rng.shuffle(order)
    cum = list(itertools.accumulate(1.0 / (rank + 1) ** skew for rank in range(n)))
    return lambda: rng.choices(order, cum_weights=cum)[0]


def _paths(rng, count, levels, branching, distinct=True):
    paths, seen = [], set()
    while len(paths) < count:
        path = tuple(rng.randrange(branching) for _ in range(levels))
        if distinct and path in seen:
            continue
        seen.add(path)
        paths.append(path)
    return paths


def _stack(path, site=None):
    """Annotated frame names of a tower path, innermost first."""
    frames = [f"pb.L{level}.F{choice}" for level, choice in enumerate(path)]
    frames.reverse()
    return ([site] if site else []) + frames


def _native(rng):
    # Every path of the compiled tower (5 levels x 4 functions, fixed by
    # native_tower.cc), in a seeded popularity order.
    paths = list(itertools.product(range(4), repeat=5))
    pick_path = _zipf_picker(rng, len(paths))
    mutexes = 16
    scripts = []  # the partner's script goes unused, but every worker has one
    for _ in range(NATIVE_THREADS):
        ops = []
        for _ in range(SCRIPT_OPS):
            r = rng.random()
            if r < 0.85:
                acq = f"{rng.randrange(mutexes)}:x"
            elif r < 0.98:
                acq = f"{mutexes}:s"
            else:
                acq = f"{mutexes}:x"
            ops.append(f"{pick_path()}:{acq}")
        scripts.append(ops)
    settings = dict(threads=NATIVE_THREADS, loop_workers=NATIVE_LOOP_WORKERS,
                    locks=mutexes + 1, rwlocks_from=mutexes, rounds=20, sample_every=1,
                    trace_every=4, abba_period_ms=100, abba_hold_us=2000)
    return settings, paths, scripts, []


def _annotated_fastpath(rng):
    levels, branching, locks, mutexes = 6, 4, 64, 16
    paths = _paths(rng, 1024, levels, branching)
    pick_path = _zipf_picker(rng, len(paths))
    scripts = []
    for _ in range(THREADS):
        ops = []
        for _ in range(SCRIPT_OPS):
            first = _fastpath_acq(rng, 0, locks, mutexes)
            op = f"{pick_path()}:{first[0]}:{first[1]}"
            if rng.random() < 0.1 and first[0] < locks - 1:
                second = _fastpath_acq(rng, first[0] + 1, locks, mutexes)
                op += f":{second[0]}:{second[1]}"
            ops.append(op)
        scripts.append(ops)
    # 1000 signatures whose stacks all end in a lock site no op ever uses:
    # the matcher can reject every request without a cover search.
    sigs = set()
    while len(sigs) < 1000:
        a, b = (tuple(_stack(rng.choice(paths), "pb.site.cold")) for _ in range(2))
        sigs.add(tuple(sorted((a, b))))
    settings = dict(threads=THREADS, loop_workers=THREADS, locks=locks, rwlocks_from=mutexes,
                    rounds=20, sample_every=7, trace_every=16, delta_in_ns=0, delta_out_ns=0,
                    match_depth=4, toggle_signature=-1, toggle_period_ms=100)
    return settings, paths, scripts, sorted(sigs)


def _fastpath_acq(rng, low, locks, mutexes):
    """About 75% shared and 25% exclusive; lock index at least `low`."""
    shared_locks = range(max(low, mutexes), locks)
    if rng.random() < 0.75 and len(shared_locks) > 0:
        return rng.choice(shared_locks), "s"
    return rng.randrange(low, locks), "x"


def _avoid_contended(rng):
    # The fig5 shape: tower of 10 levels x 3 choices, 8 mutexes, δin = 1 µs.
    levels, branching, locks = 10, 3, 8
    paths = _paths(rng, 4096, levels, branching, distinct=False)
    scripts = [[f"{rng.randrange(len(paths))}:{rng.randrange(locks)}:x"
                for _ in range(SCRIPT_OPS)] for _ in range(THREADS)]
    sigs = set()
    while len(sigs) < 64:
        a, b = (tuple(_stack(_paths(rng, 1, levels, branching)[0])) for _ in range(2))
        sigs.add(tuple(sorted((a, b))))
    settings = dict(threads=THREADS, loop_workers=THREADS, locks=locks, rwlocks_from=locks,
                    rounds=20, sample_every=3, trace_every=4, delta_in_ns=1000, delta_out_ns=0,
                    match_depth=4, toggle_signature=rng.randrange(64), toggle_period_ms=100)
    return settings, paths, scripts, sorted(sigs)


GENERATORS = {
    "native": _native,  # the preloaded program of traced runs and --selftest
    "annotated_fastpath": _annotated_fastpath,
    "avoid_contended": _avoid_contended,
}
WORKLOADS = ("annotated_fastpath", "avoid_contended")


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    settings, paths, scripts, sigs = GENERATORS[workload](rng)
    lines = ["perfbench-input 1", f"workload {workload}"]
    lines += [f"{key} {value}" for key, value in settings.items()]
    lines += ["path " + " ".join(map(str, p)) for p in paths]
    lines += [f"ops {t} " + " ".join(ops) for t, ops in enumerate(scripts)]
    lines += ["sig " + " ".join(",".join(stack) for stack in sig) for sig in sigs]
    return "\n".join(lines) + "\n"


def settings(text):
    """The integer settings of a generated input file."""
    return {line.split()[0]: int(line.split()[1]) for line in text.splitlines()[2:]
            if re.match(r"^[a-z_]+ -?\d+$", line)}
