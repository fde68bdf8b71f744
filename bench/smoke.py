"""Smoke test of the benchmark itself: ``python3 bench/run.py --smoke``.

Runs every workload at tiny sizes, untraced and traced, each in a fresh
process with a hash seed of its own, and checks that
- every output check passed;
- the traced run compared its artifact digests with the untraced run's,
  for the workloads that write artifacts;
- the result carries exactly the metrics BENCHMARK.json names, with their
  units, and each metric of the untraced run is above 0;
- every per-layer metric except error counts and flip deficits is above 0
  on at least one workload, so that each layer is measured somewhere;
- no wrapped function is missing. Error counts are not checked: some
  calls raise by design, such as a chi-square test on too sparse a table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = RUN.parent.parent / "BENCHMARK.json"
MAY_BE_ZERO = ("relabel.deficits",)


def _run(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONHASHSEED": str(trace + 1)})
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    layer_max: dict[str, float] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, stdout = _run(workload, trace)
            where = f"{workload} trace {trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed operations")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics or units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                problems += [f"{where}: {n} is {v}" for n, v in values.items() if v <= 0]
            else:
                lines = stdout.splitlines()
                problems += [f"{where}: {line[2:]}" for line in lines
                             if line.startswith("# MISSING")]
                if (any(line.startswith("# sha256") for line in lines) and not
                        any(line.startswith("# digests compared") for line in lines)):
                    problems.append(f"{where}: digests not compared across runs")
                for name, value in values.items():
                    layer_max[name] = max(layer_max.get(name, value), value)
            print(f"smoke: {where}: {result['attempted']} operations, "
                  f"{result['failed']} failed")
    problems += [f"{name} is 0 on every workload" for name, value in layer_max.items()
                 if value <= 0 and not name.endswith(".errors")
                 and name not in MAY_BE_ZERO]
    for line in problems:
        print(f"smoke: FAIL {line}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0
