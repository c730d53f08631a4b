#!/usr/bin/env python3
"""Record the benchmark of a parent and a change checkout as a BENCH_<n>.json pair.

    python3 scripts/bench_record.py BENCH_5.json=../parent BENCH_6.json=../change

Each argument is the file to write, `=`, and the source checkout it
measures (default: this one).  For every workload of BENCHMARK.json and
every seed of SEEDS it runs both checkouts' `bench/run.py --trace 0` for
the benchmark's run_seconds, one after the other, the first of the pair
alternating from seed to seed, so that each pair shares the host's drift.
Each record holds the median and quartiles over the seeds of every
end-to-end metric, the per-layer metrics of one `--trace 1` run at the
first seed, and the environment block that `bench/run.py` writes next to
its raw passes.  It prints, per metric, in how many pairs the change is
better than the parent, and the change-minus-parent median beside the
parent's interquartile spread, so that a claimed gain can be read off: it
needs nine pairs in ten and a shift larger than that spread.  Runs go one
at a time.  A run that exits nonzero
or reports `correct: false` makes the record fail (exit 1), and nothing is
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `bench/run.py` run: its result line and its environment block."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py {' '.join(args)} exited "
                           f"{proc.returncode}:\n" + proc.stderr[-2000:])
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: bench/run.py {' '.join(args)} is not correct")
    record = checkout / "bench" / "out" / f"run-{workload}-seed{seed}-trace{trace}.json"
    result["environment"] = json.loads(record.read_text())["environment"]
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def median_shift(parent: dict, change: dict, better: str) -> str:
    """One metric's change-minus-parent median beside the parent's
    interquartile spread (two spread() records), and where the shift falls:
    "better" or "worse" when it is larger than the spread, else "within"."""
    shift = change["median"] - parent["median"]
    width = parent["q3"] - parent["q1"]
    gain = -shift if better == "lower" else shift
    verdict = "within" if abs(shift) <= width else ("better" if gain > 0 else "worse")
    return f"{shift:+.4g} against {width:.4g} {verdict}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="OUT[=CHECKOUT]", help="the parent's record")
    parser.add_argument("change", metavar="OUT[=CHECKOUT]", help="the change's record")
    args = parser.parse_args(argv)
    outs, checkouts = [], []
    for arg in (args.parent, args.change):
        out, _, checkout = arg.partition("=")
        outs.append(Path(out))
        checkouts.append(Path(checkout or ROOT).resolve())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    runs: list[dict] = [{} for _ in checkouts]
    traced: list[dict] = [{} for _ in checkouts]
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for seed in SEEDS:
                for c in ((0, 1) if seed % 2 else (1, 0)):
                    runs[c].setdefault(name, []).append(
                        bench(checkouts[c], name, seed, seconds, 0))
            for c, checkout in enumerate(checkouts):
                traced[c][name] = bench(checkout, name, SEEDS[0], seconds, 1)
    except RuntimeError as exc:
        sys.stderr.write(f"bench_record: {exc}\n")
        return 1

    records = []
    for c, checkout in enumerate(checkouts):
        workloads = {}
        for name, rs in runs[c].items():
            workloads[name] = {
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "end_to_end": {
                    m["name"]: dict(unit=m["unit"], **spread(
                        [r["metrics"][m["name"]]["value"] for r in rs]))
                    for m in metrics
                },
                "per_layer": {k: v["value"] for k, v in traced[c][name]["metrics"].items()},
            }
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                                capture_output=True, text=True).stdout.strip()
        records.append({
            "command": " ".join(spec["command"]),
            "commit": commit,
            "seeds": SEEDS,
            "seconds": seconds,
            "environment": runs[c][spec["workloads"][0]["name"]][0]["environment"],
            "workloads": workloads,
        })

    for out, record in zip(outs, records):
        print(out)
        for name, w in record["workloads"].items():
            print(f"  {name}: " + ", ".join(
                f"{k} {v['median']:.4g} [{v['q1']:.4g}-{v['q3']:.4g}]"
                for k, v in w["end_to_end"].items()))
        out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"pairs in which {outs[1]} is better than {outs[0]}:")
    for name in records[0]["workloads"]:
        wins = []
        for m in metrics:
            a, b = (r["workloads"][name]["end_to_end"][m["name"]]["values"] for r in records)
            sign = 1 if m["better"] == "lower" else -1
            wins.append(f"{m['name']} {sum(sign * (x - y) > 0 for x, y in zip(a, b))}/{len(a)}")
        print(f"  {name}: " + ", ".join(wins))
    print(f"median of {outs[1]} minus median of {outs[0]}, against the quartile "
          f"spread of {outs[0]}:")
    for name in records[0]["workloads"]:
        parent, change = (r["workloads"][name]["end_to_end"] for r in records)
        print(f"  {name}: " + ", ".join(
            f"{m['name']} {median_shift(parent[m['name']], change[m['name']], m['better'])}"
            for m in metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
