"""One workload in one fresh, single-threaded process.

Started by ``run.py``; prints one JSON object on its last stdout line.

    child.py WORKLOAD SEED TRACE SPAWN_TIME [--setup-only] [--control NAME]

Set-up is interpreter start, the fimlab import and building the
workload's inputs.  It is timed like an op: its CPU time, with reference
slices sampled during it and one reference loop just after.
``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process, for set-up's raw wall time.
"""

import argparse
import gc
import json
import os
import platform
import resource
import signal
import sys
import time
import traceback

import refloop


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("trace", type=int)
    p.add_argument("spawn_time", type=float)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--control", default=None)
    return p.parse_args()


# While an untraced op runs, one reference slice runs every this many
# seconds of CPU time (about 2% of it).  A shared host's speed can change
# several times a second, so an estimate of its mean speed over an op needs
# many samples spread across the op.
SAMPLE_INTERVAL_S = 0.02


class Sampler:
    """Times reference slices from a CPU-time signal while an op runs.

    The handler runs in the main thread between bytecodes, so the process
    stays single-threaded.  The slices' own time is taken out of the op's
    timings.  CPU time is read with ``thread_time``: while the interval
    timer is armed, Linux can advance the process CPU clock only once per
    scheduler tick, and in a single-threaded process the two are equal."""

    def __init__(self):
        self.slices = []  # (cpu_s, wall_s) per slice
        signal.signal(signal.SIGPROF, self._handler)

    def _handler(self, signum, frame):
        # A collection started by the slice's allocations would scan the
        # op's heap and be charged to the slice.
        collecting = gc.isenabled()
        gc.disable()
        try:
            w0 = time.perf_counter()
            c0 = time.thread_time()
            refloop.reference_slice()
            self.slices.append((time.thread_time() - c0, time.perf_counter() - w0))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self.slices = []
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def _timed(op, sampler=None):
    """Run one op; return (output, wall_s, cpu_s, slice cpu times, error)."""
    w0 = time.perf_counter()
    c0 = time.thread_time()
    try:
        if sampler is None:
            out = op.run()
        else:
            with sampler:
                out = op.run()
        err = None
    except Exception:  # a failing op is a counted failure, not a crash
        out, err = None, traceback.format_exc(limit=3)
    c1 = time.thread_time()
    w1 = time.perf_counter()
    slices = sampler.slices if sampler is not None else []
    wall = w1 - w0 - sum(w for _, w in slices)
    cpu = c1 - c0 - sum(c for c, _ in slices)
    return out, wall, cpu, [c for c, _ in slices], err


def _ref():
    c0 = time.thread_time()
    refloop.reference_loop()
    return time.thread_time() - c0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)

    def run(self, op, out, err, control):
        if err is not None:
            self.record(f"{op.name}: raised {err}", False)
            return
        if control is not None:
            out = control(out)
        try:
            results = op.check(out)
        except Exception:
            self.record(f"{op.name}: check raised {traceback.format_exc(limit=3)}",
                        False)
            return
        for label, ok in results:
            self.record(label, ok)


def _pass(ops, checks, control, tracer=None, sampler=None):
    """One pass over the workload's ops; checks run after the timed part.

    Untraced, each op is bracketed by reference loops.  Traced, each op runs
    twice back to back, traced then untraced, so the two timings see the
    same machine speed.  Returns the per-op rows and, when tracing, the
    tracer's figures for the traced runs."""
    gc.collect()
    rows, outs = [], []
    if tracer is None:
        ref_prev = _ref()
    for op in ops:
        row = {"op": op.name}
        if tracer is not None:
            tracer.install()
            try:
                out, row["traced_wall_s"], _, _, err = _timed(op)
            finally:
                tracer.uninstall()
            outs.append((op, out, err))
        out, row["wall_s"], row["cpu_s"], slices, err = _timed(op, sampler)
        outs.append((op, out, err))
        if tracer is None:
            ref_next = _ref()
            row["ref_s"] = [ref_prev, ref_next]
            row["slice_s"] = slices
            ref_prev = ref_next
        rows.append(row)
    stats = tracer.stats() if tracer is not None else None
    for i, (op, out, err) in enumerate(outs):
        checks.run(op, out, err, control if i == 0 else None)
    return rows, stats


def main():
    args = _parse()
    sampler = Sampler()
    with sampler:
        import fimlab

        import workloads

        ops = workloads.WORKLOADS[args.workload](args.seed)
    # The main thread's CPU clock started with the process.
    slices = [c for c, _ in sampler.slices]
    setup = {
        "wall_s": time.monotonic() - args.spawn_time,
        "cpu_s": time.thread_time() - sum(slices),
        "slice_s": slices,
        "ref_s": [_ref()],
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": fimlab.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    if args.setup_only:
        print(json.dumps({"info": info, "setup": setup}))
        return 0
    control = None
    if args.control is not None:
        control = workloads.CONTROLS[args.control]
    checks = Checks()
    result = {"info": info, "setup": setup}
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        sampler = None
    start = time.perf_counter()
    result["rows"], stats = _pass(ops, checks, control, tracer, sampler)
    if args.trace:
        result["stats"] = stats
    result["measured_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["checks"] = {
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
