"""fimlab benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload suites --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  With ``--trace 0`` the
last stdout line is a JSON object whose metrics are the end-to-end
figures; with ``--trace 1`` they are the per-layer figures of the traced
run.  The exit code is 0 only when every check on every output passed.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from refloop import LOOP_S, SLICES  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suites", "hom_ladder", "homology_ladder")
SUITE_NAMES = ("lemma2.3", "commutation", "torsion", "degree", "semiinduced",
               "thm1", "group", "thm4.10", "thm2", "roundtrip")
CONTROLS = {
    "hom_off_by_one": "hom_ladder",
    "hom_repeated_map": "hom_ladder",
    "suite_failed_check": "suites",
    "h1_nonzero_free": "homology_ladder",
}
# An untraced run starts one fresh process per pass, at least this many.
# A process can run an operation 20% slower than another for its whole
# life while the reference loop in it keeps the usual speed; the per-op
# median over processes leaves such a process out.
MIN_PROCESSES = 3
DEADLINE_S = 170.0
UNITS = {"norm_cost": "ref", "setup_s": "s", "peak_rss_mb": "MB",
         "wall_s": "s", "cpu_s": "s", "ref_ms": "ms", "setup_wall_s": "s",
         "error_rate": "ratio"}
# The end-to-end metrics that go into the result line and are gated by
# BENCHMARK.json.  The others are printed above it: on a host whose speed
# drifts by more than the largest allowed bound, raw times cannot be gated.
GATED = ("norm_cost", "setup_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    """The parent's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(workload, seed, trace, deadline, extra=()):
    """Start one child, wait for it, and return its JSON result."""
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed),
            str(trace), repr(time.monotonic()), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} process timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError(f"{workload} process printed no result")
    return json.loads(lines[-1])


def _op_medians(passes, key):
    """Per-op median over passes, as {op: value}."""
    ops = [row["op"] for row in passes[0]]
    return {op: statistics.median(p[i][key] for p in passes)
            for i, op in enumerate(ops)}


def _norm(row):
    """CPU time over the reference loop's time around and during an op or
    a set-up.

    Each whole loop next to it counts as one slice sample, each slice
    sampled during it as one, and the mean slice time is scaled up to a
    whole loop."""
    samples = [t / SLICES for t in row["ref_s"]] + row["slice_s"]
    return row["cpu_s"] / (SLICES * sum(samples) / len(samples))


def end_to_end(passes, setups, rss, checks):
    for p in passes:
        for row in p:
            row["norm"] = _norm(row)
    refs = [r for p in passes for row in p for r in row["ref_s"]]
    return {
        "wall_s": sum(_op_medians(passes, "wall_s").values()),
        "cpu_s": sum(_op_medians(passes, "cpu_s").values()),
        "norm_cost": sum(_op_medians(passes, "norm").values()),
        "ref_ms": 1000 * statistics.median(refs),
        "setup_s": LOOP_S * statistics.median(_norm(s) for s in setups),
        "setup_wall_s": statistics.median(s["wall_s"] for s in setups),
        "peak_rss_mb": statistics.median(rss),
        "error_rate": checks["failed"] / max(1, checks["attempted"]),
    }


def per_layer(res, workload):
    rows = res["rows"]
    out = dict(res["stats"])
    wall = sum(row["traced_wall_s"] for row in rows)
    self_sum = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["caller.self_s"] = wall - out["trace.attributed_s"]
    out["trace.wall_s"] = wall
    out["trace.self_share"] = self_sum / wall
    out["trace.overhead_ratio"] = wall / sum(row["wall_s"] for row in rows)
    op_wall = ({row["op"]: row["wall_s"] for row in rows}
               if workload == "suites" else {})
    for name in SUITE_NAMES:
        out[f"suites.{name}.wall_s"] = op_wall.get(name, 0.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def measure(workload, seed, seconds, trace, control, deadline):
    """Run one workload; return (info, metrics, attempted, failed, failures)."""
    extra = ("--control", control) if control else ()
    if trace:
        results = [run_child(workload, seed, 1, deadline, extra)]
        setups = []
    else:
        setups, results = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            # Set-up is also timed in a process that only sets up, before
            # each workload process, so the samples span the whole run and
            # the host's speed changes within it.
            setups.append(run_child(workload, seed, 0, deadline,
                                    ("--setup-only",))["setup"])
            results.append(run_child(workload, seed, 0, deadline, extra))
            now = time.monotonic()
            if (len(results) >= MIN_PROCESSES
                    and now - start + (now - t0) / 2 >= seconds):
                break
    setups += [r["setup"] for r in results]
    passes = [r["rows"] for r in results]
    checks = {key: sum(r["checks"][key] for r in results)
              for key in ("attempted", "failed")}
    failures = [f for r in results for f in r["checks"]["failures"]][:20]
    if trace:
        metrics = per_layer(results[0], workload)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics = end_to_end(passes, setups, [r["peak_rss_mb"] for r in results],
                             checks)
        units = UNITS
    info = dict(results[0]["info"], processes=len(results), passes=len(passes),
                measured_s=sum(r["measured_s"] for r in results))
    return (info, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            checks["attempted"], checks["failed"], failures)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--control", choices=sorted(CONTROLS),
                   help="corrupt one output to prove the checker fails")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fimlab" / "__init__.py").is_file():
        print(f"fimlab sources not found under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.control and CONTROLS[args.control] not in names:
        print(f"control {args.control} applies to {CONTROLS[args.control]}",
              file=sys.stderr)
        return 2
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        control = args.control if CONTROLS.get(args.control) == name else None
        deadline = time.monotonic() + DEADLINE_S
        try:
            info, m, a, f, failures = measure(name, args.seed, args.seconds,
                                              args.trace, control, deadline)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 2
        print(json.dumps({"info": info, "failures": failures}))
        for k, v in m.items():
            note = "" if args.trace or k in GATED else "  (not gated)"
            print(f"{name:16s} {k:32s} {v['value']:.6g} {v['unit']}{note}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()
                        if args.trace or k in GATED})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
