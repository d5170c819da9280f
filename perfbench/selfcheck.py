"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Negative controls: each corrupts one output of its workload (a Hom
   dimension off by one, a suite report with one failed check, a nonzero
   H1 for a free module).  The benchmark must report failed checks and exit
   nonzero.
2. Count determinism: two traced runs of each workload, under different
   ``PYTHONHASHSEED`` values, must give identical count metrics.

Every check runs on every workload at seed 0.  Exits 0 only when every
self-check holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import CONTROLS, WORKLOADS  # noqa: E402


def bench(args, hash_seed=None):
    """Run run.py with ``args``; return (exit code, last-line JSON or None)."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          env=env, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    last = json.loads(lines[-1]) if lines else None
    return proc.returncode, last


def check_control(control):
    code, res = bench(["--workload", CONTROLS[control], "--control", control,
                       "--seed", "0", "--seconds", "1"])
    ok = code != 0 and res is not None and res["failed"] > 0 and not res["correct"]
    detail = (f"exit {code}, failed {res['failed']} of {res['attempted']}"
              if res else f"exit {code}, no result")
    return ok, detail


def counts(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in ("count", "bits")}


def check_determinism(workload):
    runs = []
    for hash_seed in (1, 2):
        code, res = bench(["--workload", workload, "--seed", "0",
                           "--seconds", "1", "--trace", "1"], hash_seed)
        if code != 0 or res is None:
            return False, f"traced run exited {code}"
        runs.append(counts(res["metrics"]))
    diff = sorted(k for k in runs[0] if runs[0][k] != runs[1].get(k))
    return not diff and runs[0].keys() == runs[1].keys(), (
        f"{len(runs[0])} counts, differing: {diff}")


def main() -> int:
    results = [(f"control {control}", *check_control(control))
               for control in CONTROLS]
    results += [(f"counts repeat on {workload}", *check_determinism(workload))
                for workload in WORKLOADS]
    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
