"""scenehull benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ``src/``; inputs
are generated from ``--seed`` into a scratch directory that is removed at
exit. Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over the
set-ups done before each request, each a fresh import plus the one-off
set-up), ``request_s`` (median wall time of one request) and
``peak_rss_mb``. ``--trace 1`` sets up once, alternates untraced and traced
requests and reports the per-layer metrics of ``tracer.summarize`` plus the
tracing overhead; spans go to ``.perfbench_out/``. ``attempted`` and
``failed`` count requests; only requests that succeeded are timed.

Exit code 0 when every request succeeded and every output check passed,
1 when one did not, 2 when the program sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, as `scenehull --threads 1` does.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
# Share of traced request time that the layers' self times must cover; the
# rest is the harness's own span, which only calls into the program.
MIN_LAYER_SELF_SHARE = 0.95

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.spatial  # noqa: E402,F401 - a dependency import, kept out of setup_s

import tracer as tracing  # noqa: E402
from workloads import ENCODER_WIDTHS, WORKLOADS, median  # noqa: E402


def import_program():
    """A fresh import of the traced scenehull modules (layer name -> module)."""
    for name in [n for n in sys.modules if n == "scenehull" or n.startswith("scenehull.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"scenehull.{layer}") for layer in tracing.LAYERS}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


class Loop:
    """Requests, their timings and their failures, all counted per request."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.times = defaultdict(list)     # kind -> seconds, requests that succeeded
        self.walls = {True: [], False: []}  # traced? -> request wall seconds, same requests
        self.failures = []
        self.attempted = 0
        self.traced_requests = set()  # request ids of the traced requests that succeeded

    def request(self, workload, index, traced):
        self.attempted += 1
        request_id = str(index)
        spent = []

        def timed(kind, fn):
            ctx = self.tracer.root(request_id) if traced else contextlib.nullcontext()
            with ctx:
                start = time.perf_counter()
                try:
                    return fn()
                finally:
                    spent.append((kind, time.perf_counter() - start))

        try:
            workload.request(timed)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, the loop goes on
            self.failures.append(f"request {index}: {type(exc).__name__}: {exc}")
            return
        for kind, seconds in spent:
            self.times[kind].append(seconds)
        self.walls[traced].append(sum(seconds for _, seconds in spent))
        if traced:
            self.traced_requests.add(request_id)


def run(workload_name, seed, seconds, trace):
    if not (SRC / "scenehull" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench_work" / f"{workload_name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(WORKLOADS[workload_name](work / "inputs", work), seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it


def measure(workload, seed, seconds, trace):
    env = environment()
    print(f"# perfbench workload={workload.name} seed={seed} seconds={seconds} trace={trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    digest = workload.generate(seed)
    print(f"# inputs sha256 {digest}")

    setup_times = []
    tracer = None
    if trace:
        mods = import_program()
        tracer = tracing.Tracer(mods, ENCODER_WIDTHS)
        tracer.install()
        with tracer.root(tracing.SETUP):
            workload.setup(mods)

    loop = Loop(tracer)
    cycles = []  # seconds of each loop turn: its set-ups and its request
    start = time.perf_counter()
    while True:
        # closed loop: start another turn while it is expected to end within the run
        expected = median(cycles) if cycles else 0.0
        if len(cycles) >= workload.min_requests and time.perf_counter() - start + expected > seconds:
            break
        began = time.perf_counter()
        traced = bool(trace) and len(cycles) % 2 == 1
        if trace:
            (tracer.install if traced else tracer.uninstall)()
        else:
            # set-ups are spread over the run, so that their median sees the
            # same host speed as the requests' median
            for _ in range(workload.setups_per_request):
                setup_start = time.perf_counter()
                workload.setup(import_program())
                setup_times.append(time.perf_counter() - setup_start)
        loop.request(workload, len(cycles), traced)
        cycles.append(time.perf_counter() - began)
    if trace:
        tracer.uninstall()

    for line in loop.failures:
        print(f"# FAILED {line}")
    failed = len(loop.failures)
    ok = not loop.failures
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for name, value, unit, note in workload.report(loop.times):
        print(f"{name} {value:.6g} {unit}  ({note})")
    print(f"failed_share {failed / max(loop.attempted, 1):.6g} 1  ({failed} of {loop.attempted} requests)")
    print(f"# setup covers: {workload.setup_covers}")

    if trace:
        metrics, ok_trace = traced_metrics(loop, workload, seed)
        ok = ok and ok_trace
    else:
        request_s = median(loop.walls[False])
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "request_s": (request_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        print(f"setup_s {metrics['setup_s'][0]:.6g} s  (median of {len(setup_times)} set-ups)")
        print(f"request_s {request_s:.6g} s  (median of {len(loop.walls[False])} requests)")
        print(f"peak_rss_mb {rss_mb:.6g} MB")

    result = {
        "correct": bool(ok),
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ok else 1


def traced_metrics(loop, workload, seed):
    """Per-layer metrics, the tracing overhead, and the trace file."""
    tracer = loop.tracer
    requests = loop.traced_requests
    summary = tracing.summarize(tracer, requests, ENCODER_WIDTHS, workload.setup_in_layers)
    spans = tracer.spans
    root_wall = sum(end - start for name, start, end, _, req, _ in spans
                    if name == tracing.ROOT and req in requests)
    layer_self = sum(row["self_s"] for name, row in summary["layers"].items() if name != "bench")
    share = layer_self / root_wall if root_wall else 0.0
    ok = True
    strays = sum(1 for s in spans if s[3] >= 0 and spans[s[3]][4] != s[4])
    if strays:
        ok = False
        print(f"# FAILED {strays} spans have a parent in another request")
    if share < MIN_LAYER_SELF_SHARE:
        ok = False
        print(f"# FAILED the layers cover {share:.4f} of the traced request time, "
              f"below {MIN_LAYER_SELF_SHARE}")

    traced = median(loop.walls[True])
    untraced = median(loop.walls[False])
    metrics = dict(summary["metrics"])
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.layer_self_share"] = (share, "ratio")
    metrics["trace.spans_per_request"] = (
        sum(1 for s in spans if s[4] in requests) / max(len(requests), 1), "count")

    print(f"# traced requests {len(loop.walls[True])}, untraced {len(loop.walls[False])}; "
          f"overhead {traced - untraced:+.4f} s per request ({traced:.4f} vs {untraced:.4f})")
    for phase, table in summary["tables"].items():
        print(f"# {phase + ' function':<58} {'calls':>8} {'errors':>6} {'self_s':>10}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# {name:<58} {row['calls']:>8} {row['errors']:>6} {row['self_s']:>10.4f}")
    for conv, per_offset in summary["pairs"].items():
        if np.any(per_offset):
            print(f"# neighbour pairs per offset per forward, {conv}: "
                  + " ".join(f"{x:.1f}" for x in per_offset))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} {value:.6g} {unit}" + ("  (computed)" if name in tracing.COMPUTED else ""))

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{workload.name}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent, request, error) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                 "parent": parent, "request": request, "error": error}) + "\n")
    return metrics, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
