#!/usr/bin/env python3
"""The thhlab benchmark: three workloads timed end to end and per layer.

    python3 bench/run.py --workload page-turns --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; it starts every pass as a fresh
`python3 bench/worker.py` with the checkout's src/ on PYTHONPATH, one at a
time, until the next pass would end past --seconds (but at least two
untraced passes).  With --trace 0 it reports the end-to-end metrics
(medians over passes); with --trace 1 it alternates an untraced and a
traced pass and reports the per-layer metrics.  The last line of standard
output is one json object with the keys correct, attempted, failed and
metrics.  Raw passes and trace dumps go to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEADLINE_S = 170.0  # a whole run, set-up probes included
SETUP_PROBES = 5
# untraced passes per run even when one pass outlasts --seconds: a single
# 20 s catalog pass carries the host's speed drift unfiltered
MIN_PASSES = 2

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class PassFailed(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> dict:
    """Run one worker to its end; its result, with setup_s measured from spawn."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker {args} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"worker {args} exited {proc.returncode}: "
                         + proc.stderr.decode(errors="replace")[-2000:])
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    result["setup_s"] = result["t_ready"] - t_spawn
    return result


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode argument
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu_count": os.cpu_count(),
    }


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, bool]:
    """Medians of the traced passes' layer times, their counts (which must
    repeat exactly), and the tracing overhead."""
    layers = [t["layers"] for t in traced]
    repeat = all(
        all(lay[k] == layers[0][k] for k in layers[0] if not k.endswith("_s"))
        for lay in layers
    )
    metrics = {}
    for key in layers[0]:
        if key.endswith("_s"):
            value, unit = statistics.median(lay[key] for lay in layers), "s"
        else:
            value, unit = layers[0][key], "ratio" if key.endswith("_yield") else "count"
        metrics[key] = {"value": value, "unit": unit}
    overhead = (statistics.median(t["wall_s"] for t in traced)
                - statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "thhlab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no thhlab sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    pass_args = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(OUT)]
    try:
        spawn(["--probe"], DEADLINE_S)  # untimed: compiles bytecode, warms the file cache
        setups = [spawn(["--probe"], DEADLINE_S)["setup_s"] for _ in range(SETUP_PROBES)]
        plain: list[dict] = []
        traced: list[dict] = []
        while True:
            round_start = time.monotonic()
            plain.append(spawn(pass_args + ["--trace", "0"], deadline - round_start))
            if args.trace:
                traced.append(spawn(pass_args + ["--trace", "1"], deadline - time.monotonic()))
            now = time.monotonic()
            next_end = now + (now - round_start)
            enough = args.trace or len(plain) >= MIN_PASSES
            if next_end > deadline or (enough and next_end > start + args.seconds):
                break
    except PassFailed as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    passes = plain + traced
    correct = len({p["digest"] for p in passes}) == 1
    if args.trace:
        metrics, repeat = per_layer_metrics(traced, plain)
        correct = correct and repeat
    else:
        metrics = {
            name: {"value": statistics.median(p[name] for p in plain), "unit": unit}
            for name, unit in END_TO_END.items() if name != "setup_s"
        }
        setup = statistics.median(setups + [p["setup_s"] for p in plain])
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"args": vars(args), "environment": environment(), "setup_probes_s": setups,
              "passes": [{k: v for k, v in p.items() if k != "trace"} for p in passes],
              "result": result}
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(traced[0]["trace"], indent=1) + "\n")

    for p in passes:
        for problem in p["problems"][:5]:
            sys.stderr.write(f"bench: failed operation: {problem}\n")
    print(f"# {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes; {json.dumps(record['environment'])}")
    for name, m in metrics.items():
        print(f"# {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
