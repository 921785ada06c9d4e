"""Check that the deterministic metrics do not depend on PYTHONHASHSEED.

    python3 perfbench/check_determinism.py [--seed 3] [--seconds 1]

Runs every workload twice, under two ``PYTHONHASHSEED`` values, and
compares ``sim_step_ms``, ``compression_ratio``, ``loss_final``,
``fleet_makespan_s`` and ``fleet_goodput`` (where the workload has
them) for exact equality.  A sub-stream seeded from ``hash()`` of a
string would make them differ.  Exits non-zero on any difference or
failed run.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def deterministic(workload: str, seed: int, seconds: float, hashseed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent,
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("details "))
    details = json.loads(line[len("details "):])
    if details["problems"]:
        raise RuntimeError(f"{workload}: {details['problems']}")
    return details["deterministic"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args()
    ok = True
    for workload in WORKLOADS:
        a = deterministic(workload, args.seed, args.seconds, "1")
        b = deterministic(workload, args.seed, args.seconds, "2")
        same = a == b
        ok &= same
        print(f"{workload:14s} {'identical' if same else 'DIFFERENT'} {json.dumps(a)}")
        if not same:
            print(f"{'':14s} other hash seed: {json.dumps(b)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
