#!/usr/bin/env python3
"""Run every workload untraced and traced, and print the trace overhead.

    python3 perfbench/report.py [--seed 1938] [--seconds 20]

Each run is a fresh ``run.py`` process. Their human-readable lines (every
metric by name with its unit, and the outcome of every output check) are
passed through, then one table compares the traced ``wall_s`` with the
untraced one per workload. Exits 1 if any run fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout + proc.stderr)
        return None
    print("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1938)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    rows, ok = [], True
    for workload in WORKLOAD_NAMES:
        plain = run(workload, args.seed, args.seconds, trace=0)
        traced = run(workload, args.seed, args.seconds, trace=1)
        if plain is None or traced is None:
            ok = False
            continue
        ok = ok and plain["correct"] and traced["correct"]
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        rows.append((workload, plain["correct"] and traced["correct"],
                     f"{plain['failed']}/{plain['attempted']}", wall, traced_wall))

    print(f"{'workload':<16} {'correct':<8} {'failed/attempted':<17} "
          f"{'wall_s':>9} {'traced wall_s':>14} {'trace overhead':>15}")
    for workload, correct, fails, wall, traced_wall in rows:
        print(f"{workload:<16} {str(correct).lower():<8} {fails:<17} {wall:>9.4f} "
              f"{traced_wall:>14.4f} {traced_wall / wall - 1:>+14.1%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
