"""Negative controls: the benchmark's checking code must be able to fail."""

import json
from pathlib import Path

from thhlab.graded_algebra import exterior, make_algebra, polynomial
from thhlab.scenarios import emit_report, forced_failure_report
from thhlab.tor_engine import fp_module, tor_closed_form, tor_oracle

import checks
import reference
import workloads
import worker


def _thhz_run(tmp_path, p=3, cap=30):
    tap = worker.PageTap()
    tap.install()
    _, docs = worker.run_cli(["run", "thhz", "--prime", str(p), "--cap", str(cap)],
                             str(tmp_path / "report.json"))
    return docs[0], tap.einfty["thhz"]


def test_forced_failure_report_counts_as_failed():
    doc = json.loads(emit_report(forced_failure_report(), "json"))
    problems = checks.scenario_problems(doc, None)
    assert problems
    assert checks.count_failed([problems]) == 1


def test_thhz_passes_and_fails_against_a_perturbed_series(tmp_path):
    doc, einfty = _thhz_run(tmp_path)
    assert checks.scenario_problems(doc, einfty) == []

    def perturbed(p, cap):
        out = reference.z_tower(p, cap)
        out[2 * p] += 1
        return out

    problems = checks.scenario_problems(doc, einfty, series=perturbed)
    assert problems and "total degree 6" in problems[0]
    assert checks.count_failed([[], problems]) == 1


def test_missing_page_turn_counts_as_failed(tmp_path):
    doc, _ = _thhz_run(tmp_path)
    assert checks.scenario_problems(doc, None)


def test_tor_case_against_a_perturbed_reference():
    gens = (("x", 2), ("y", 3))
    alg = make_algebra(3, [polynomial("x0", 2), exterior("y0", 3)])
    unit = fp_module(alg)
    oracle = tor_oracle(alg, unit, unit, 12)
    closed = tor_closed_form(alg, unit, unit, 12).bigraded_dims(12)
    assert checks.tor_problems(gens, 12, oracle, closed) == []

    want = reference.tor_dims([2], [3], 12)
    want[(1, 2)] += 1
    problems = checks.tor_problems(gens, 12, oracle, closed, want=want)
    assert len(problems) == 2  # oracle and closed form both disagree
    assert checks.count_failed([problems]) == 1


def test_tor_grid_draw():
    cases = workloads.tor_grid_cases(7)
    assert cases == workloads.tor_grid_cases(7)
    assert cases != workloads.tor_grid_cases(8)
    keys = {(p, tuple(sorted(d for k, d in g if k == "x")),
             tuple(sorted(d for k, d in g if k == "y"))) for p, g in cases}
    assert len(keys) == len(cases) == 2 * (10 * 10 - 1)
    for _, gens in cases:
        kinds = [k for k, _ in gens]
        assert kinds == sorted(kinds)  # polynomial generators first


def test_traced_metric_names_match_benchmark_json():
    import tracer
    from thhlab.scenarios import list_scenarios

    names = [n for n, _ in list_scenarios()]
    reported = list(tracer.layer_metrics(tracer.Tracer(), names)) + ["trace.overhead_s"]
    spec = json.loads((Path(checks.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert reported == [m["name"] for m in spec["per_layer"]]
