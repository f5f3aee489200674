"""Short self-check of the benchmark: `python3 perfbench/run.py --self-check`.

Runs every workload for one second untraced and traced (each run still
does at least one whole cycle) and asserts that:

- the summary line carries exactly the metrics BENCHMARK.json lists, with
  the same units, and reports no failed operation;
- the full record prints every end-to-end metric of the workload by name
  and unit, with failed_frac = 0;
- the traced run prints every per-layer metric, the particular layer is
  idle on knots_sweep, and the layers' self times sum to the traced
  end-to-end time.

Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

# End-to-end metrics of the full record, per workload, with their units.
RECORD_METRICS = {
    "source_fine": {"report_s.p50": "s", "report_s.tail": "s"},
    "knots_sweep": {"converge_s.p50": "s"},
    "query_dense": {"solve_s.p50": "s", "query_us.p50": "us", "query_us.tail": "us"},
}
COMMON = {"setup_s": "s", "cycle_s.p50": "s", "max_err": "1",
          "failed_frac": "1", "peak_rss_mb": "MiB"}


def _run(here, root, workload, trace):
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def check(here, root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            record, summary = _run(here, root, workload, trace)
            found = []
            if _units(summary["metrics"]) != expected[trace]:
                found.append("summary metrics differ from BENCHMARK.json")
            if not summary["correct"] or summary["failed"] != 0 or summary["attempted"] < 1:
                found.append(f"failures {record['failures']}")
            printed = _units(record["metrics"])
            values = {k: v["value"] for k, v in record["metrics"].items()}
            wanted = dict(COMMON, **RECORD_METRICS[workload]) if trace == 0 else expected[1]
            found += [f"{name} [{unit}] not printed" for name, unit in wanted.items()
                      if printed.get(name) != unit]
            if trace == 0 and values.get("failed_frac") != 0:
                found.append("failed_frac is not 0")
            if trace == 1 and workload == "knots_sweep":
                busy = [k for k, v in values.items() if k.startswith("particular.") and v]
                if busy:
                    found.append(f"particular layer not idle: {busy}")
            if trace == 1:
                gap = abs(values["trace.self_sum_s"] - values["trace.e2e_s"])
                if gap > max(abs(values["trace.overhead_s"]), 1e-6):
                    found.append(f"self times sum to {values['trace.self_sum_s']} s, "
                                 f"traced end to end {values['trace.e2e_s']} s")
            print(f"{tag}: {'ok' if not found else 'FAILED'} "
                  f"({summary['attempted']} operations)")
            problems += [f"{tag}: {p}" for p in found]
    return problems


def main(here, root):
    problems = check(here, root)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0
