"""Print every benchmark metric by name and unit, and the machine it ran on.

    python3 perfbench/report.py

Run from the root of a checkout.  Each workload runs twice through
``run.py``, with seed 1 and BENCHMARK.json's ``run_seconds``: untraced
for the end-to-end metrics, then traced for the per-layer metrics.
For another seed, length or single workload, call ``run.py`` itself.
Every run also checks its answers, so a line ``correct false`` means
the numbers below it describe wrong output.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEED = 1


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    print(f"python {platform.python_version()} ({sys.executable})")
    print(f"nproc {len(os.sched_getaffinity(0))}, cpu {cpu_model()}")
    status = 0
    for workload in workloads.STREAMS:
        for trace in (0, 1):
            command = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(SEED),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print(f"\n== {workload}, seed {SEED}, {seconds} s, trace {trace}: exit {done.returncode}")
            if done.returncode != 0 or not lines:
                print(done.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            print(f"correct {str(result['correct']).lower()}, attempted {result['attempted']}, failed {result['failed']}")
            if not result["correct"]:
                print(done.stderr)
                status = 1
            for name, metric in result["metrics"].items():
                print(f"  {name:62s} {metric['value']:>16.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
