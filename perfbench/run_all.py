"""Run every workload, each in a fresh process, and print their reports.

    python3 perfbench/run_all.py --seed 1 --seconds 25 [--trace 0]

Exits non-zero unless every workload's verdict is correct.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    verdicts = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("details ")))
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            verdicts[workload] = False
            continue
        verdicts[workload] = json.loads(lines[-1])["correct"]
    print("all workloads correct" if all(verdicts.values()) else f"verdicts: {verdicts}")
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
