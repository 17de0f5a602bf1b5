"""Run the benchmark over several seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

Each (workload, seed) is one run of ``run.py`` in its own process, one after
the other. For every metric the file holds the values, the median and the
quartile spread (Q3 - Q1) / median, with Python's ``statistics.quantiles(n=4)``.
The environment stamp adds the CPU model to what ``run.py`` prints.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_seeds(text):
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    reported = {}  # human-readable "name value unit (note)" lines
    env = sha = None
    for line in lines[:-1]:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("# inputs sha256 "):
            sha = line.split()[-1]
        elif not line.startswith("#"):
            name, value, unit = line.split()[:3]
            reported[name] = {"value": float(value), "unit": unit}
    return {"seed": seed, "wall_s": wall, "inputs_sha256": sha, "env": env,
            "result": result, "reported": reported}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated, default all")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also record one traced run per workload with this seed")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "cpu_model": cpu_model(), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, bench["run_seconds"], 0))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items()) + f" ({runs[-1]['wall_s']:.0f} s)",
                flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            summary[name] = spread([r["result"]["metrics"][name]["value"] for r in runs])
            summary[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            summary[name]["bound"] = bounds.get(name)
        for name in runs[0]["reported"]:
            if name not in summary:
                summary[name] = spread([r["reported"][name]["value"] for r in runs])
                summary[name]["unit"] = runs[0]["reported"][name]["unit"]
        why = next(w["why"] for w in bench["workloads"] if w["name"] == workload)
        entry = {"why": why, "summary": summary, "runs": runs}
        if args.trace_seed is not None:
            entry["traced"] = run_once(workload, args.trace_seed, bench["run_seconds"], 1)
        record["workloads"][workload] = entry
        for name, s in summary.items():
            flag = ""
            if s.get("bound") is not None and s["spread"] > s["bound"] / 3:
                flag = "  <-- spread above a third of the bound"
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.4f}{flag}")
    record["env"] = record["workloads"][workloads[0]]["runs"][0]["env"]
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
