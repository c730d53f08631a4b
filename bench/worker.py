"""One pass of a workload in a fresh interpreter, as a user's `thhlab run` pays.

Usage (run.py starts it with src/ on PYTHONPATH):

    python3 bench/worker.py --workload tor-grid --seed 1 --trace 0 --out-dir bench/out
    python3 bench/worker.py --probe     # import thhlab and report when ready

It prints one json line: the monotonic clock once thhlab is imported
(run.py subtracts its own clock at spawn to get set-up time), the pass's
wall and CPU time, its peak resident memory, the operations attempted, the
problems of each failed one, a digest of the program's outputs, and with
--trace 1 the per-layer metrics and the full trace.
"""

import time

import thhlab.cli
import thhlab.graded_algebra
import thhlab.scenarios
import thhlab.tor_engine

T_READY = time.monotonic()

import argparse  # noqa: E402 - set-up time ends above
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class PageTap:
    """Records, per scenario, the total dimensions of the page that the
    scenario's first page turn produces: its E-infinity page in the window.
    (thh-ku-ss turns a second page for the excluded alternative after it.)"""

    def __init__(self) -> None:
        self.current = None
        self.einfty: dict[str, list[int]] = {}

    def install(self) -> None:
        run_scenario = thhlab.scenarios.run_scenario
        run_differential = thhlab.scenarios.run_differential

        def scenario_tap(name, *args, **kwargs):
            self.current = name
            try:
                return run_scenario(name, *args, **kwargs)
            finally:
                self.current = None

        def page_tap(page, rules):
            out = run_differential(page, rules)
            if self.current is not None and self.current not in self.einfty:
                self.einfty[self.current] = out.total_dims(out.cap)
            return out

        tracer.rebind(run_scenario, scenario_tap)
        tracer.rebind(run_differential, page_tap)


def run_cli(argv: list[str], out_path: str) -> tuple[bytes, list]:
    """`thhlab run ... --format json --out out_path`: the report bytes and
    the parsed reports (empty when the run raised)."""
    try:
        thhlab.cli.main(argv + ["--format", "json", "--out", out_path])
        with open(out_path, "rb") as handle:
            payload = handle.read()
    except Exception as exc:  # a crash fails every scenario of the run
        return repr(exc).encode(), []
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    docs = json.loads(payload)
    return payload, docs if isinstance(docs, list) else [docs]


def scenario_runs(workload: str, seed: int):
    """(argv, scenario names) of each `thhlab run` the pass makes."""
    if workload == "page-turns":
        return [(["run", name, "--prime", str(workloads.PAGE_TURNS_PRIME),
                  "--cap", str(workloads.PAGE_TURNS_CAP)], [name])
                for name in workloads.page_turns_order(seed)]
    names = [n for n, _ in thhlab.scenarios.list_scenarios()]
    return [(["run", "--all", "--prime", str(workloads.CATALOG_PRIME)], names)]


def run_scenarios(workload: str, seed: int, out_dir: str):
    """Each `thhlab run` of the workload: (scenario names, bytes, reports)."""
    out_path = os.path.join(out_dir, f"report-{os.getpid()}.json")
    return [(names, *run_cli(argv, out_path)) for argv, names in scenario_runs(workload, seed)]


def check_scenarios(results, tap: PageTap):
    outputs, problems = [], []
    for names, payload, docs in results:
        outputs.append(payload)
        by_name = {doc["scenario"]: doc for doc in docs}
        for name in names:
            if name not in by_name:
                problems.append([f"{name}: no report ({payload[:200]!r})"])
            else:
                problems.append(checks.scenario_problems(by_name[name], tap.einfty.get(name)))
    return outputs, problems


def run_tor_grid(seed: int):
    """Oracle and closed form for every grid case: (p, generators, oracle, closed).

    Calls go through the module attributes, so a traced pass sees the
    wrappers that tracer.install put there."""
    ga, tor = thhlab.graded_algebra, thhlab.tor_engine
    cap = workloads.TOR_CAP
    results = []
    for p, gens in workloads.tor_grid_cases(seed):
        seen = {"x": 0, "y": 0}
        built = []
        for kind, d in gens:
            make = ga.polynomial if kind == "x" else ga.exterior
            built.append(make(f"{kind}{seen[kind]}", d))
            seen[kind] += 1
        try:
            alg = ga.make_algebra(p, built)
            unit = tor.fp_module(alg)
            oracle = tor.tor_oracle(alg, unit, unit, cap)
            closed = tor.tor_closed_form(alg, unit, unit, cap).bigraded_dims(cap)
        except Exception as exc:  # one case failing must not end the pass
            results.append((p, gens, None, repr(exc)))
            continue
        results.append((p, gens, oracle, closed))
    return results


def check_tor_grid(results):
    outputs, problems = [], []
    for p, gens, oracle, closed in results:
        if oracle is None:
            outputs.append(closed.encode())
            problems.append([f"p={p} {gens}: raised {closed}"])
            continue
        outputs.append(json.dumps([sorted(oracle.items()), sorted(closed.items())]).encode())
        problems.append(checks.tor_problems(gens, workloads.TOR_CAP, oracle, closed))
    return outputs, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"t_ready": T_READY}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tracer.install(tr)
    tap = PageTap()
    tap.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if args.workload == "tor-grid":
        results = run_tor_grid(args.seed)
    else:
        results = run_scenarios(args.workload, args.seed, args.out_dir)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    if args.workload == "tor-grid":
        outputs, problems = check_tor_grid(results)
    else:
        outputs, problems = check_scenarios(results, tap)

    digest = hashlib.sha256()
    for out in outputs:
        digest.update(out)
    result = {
        "t_ready": T_READY,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mib": after.ru_maxrss / 1024.0,
        "attempted": len(problems),
        "failed": checks.count_failed(problems),
        "problems": [p for p in problems if p],
        "digest": digest.hexdigest(),
    }
    if tr is not None:
        names = [n for n, _ in thhlab.scenarios.list_scenarios()]
        result["layers"] = tracer.layer_metrics(tr, names)
        result["trace"] = tr.dump()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
