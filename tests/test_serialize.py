import pathlib

import pytest

from thhlab.scenarios import emit_report
from thhlab.serialize import (
    ParseError,
    load_scenario,
    load_scenario_file,
    run_file_scenario,
)

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

MINIMAL = """
scenario tiny
prime 3
cap 12

[generators]
x polynomial 2
dx exterior 3
"""


def test_example_file_runs_clean():
    fs = load_scenario_file(str(DOCS / "thhz.scenario"))
    assert fs.name == "thhz-file"
    assert fs.prime == 3
    assert fs.cap == 36
    report = run_file_scenario(fs)
    assert report.ok
    byname = {c.name: c for c in report.checks}
    assert byname["differentials-consistent"].status == "pass"
    assert byname["differentials-consistent"].witnesses["page_index"] == 4
    assert byname["einfty-vs-abutment"].status == "pass"
    assert byname["einfty-vs-abutment"].witnesses["extension_drops"] == [["m2", 3]]


def test_report_bytes_deterministic():
    fs = load_scenario_file(str(DOCS / "thhz.scenario"))
    first = emit_report(run_file_scenario(fs), "json")
    second = emit_report(run_file_scenario(fs), "json")
    assert first == second


def test_cap_override():
    fs = load_scenario_file(str(DOCS / "thhz.scenario"))
    report = run_file_scenario(fs, cap=20)
    assert report.cap == 20
    assert report.ok


def test_minimal_scenario_no_rules():
    report = run_file_scenario(load_scenario(MINIMAL))
    assert report.ok
    (check,) = report.checks
    assert check.name == "differentials-consistent"
    assert check.witnesses["rules"] == 0


def test_sabotaged_target_fails_consistency():
    text = (DOCS / "thhz.scenario").read_text().replace("-> l2", "-> l1")
    report = run_file_scenario(load_scenario(text))
    assert not report.ok
    assert report.checks[0].name == "differentials-consistent"
    assert report.checks[0].status == "fail"
    assert "detail" in report.checks[0].witnesses


TRUNCATED = """
scenario truncated-leibniz
prime 5
cap 7

[generators]
x truncated 2 height=3 filtration=2
y exterior 3

[differentials]
page=2 x -> y
"""


def test_truncation_residual_fails_consistency():
    # d(x^3) = 3 x^2 y is not 0, and the pair x * x^2 fits the window at cap 7
    (check,) = run_file_scenario(load_scenario(TRUNCATED)).checks
    assert check.name == "differentials-consistent"
    assert check.status == "fail"
    assert check.witnesses["detail"] == "Leibniz fails on x * x^2"
    assert run_file_scenario(load_scenario(TRUNCATED), cap=6).ok
    assert run_file_scenario(load_scenario(TRUNCATED.replace("height=3", "height=5")), cap=16).ok


def test_inconsistent_extension_degree_fails_cleanly():
    # wrong extension degree is a failed claim, not a crash
    text = (DOCS / "thhz.scenario").read_text().replace(
        "m1 polynomial 6", "m1 polynomial 8"
    )
    report = run_file_scenario(load_scenario(text))
    assert not report.ok
    byname = {c.name: c for c in report.checks}
    assert byname["einfty-vs-abutment"].status == "fail"
    assert "degree" in byname["einfty-vs-abutment"].witnesses["detail"]


def test_parse_errors():
    with pytest.raises(ParseError, match="scenario, prime, and cap"):
        load_scenario("scenario x\ncap 5\n\n[generators]\nv polynomial 2\n")
    with pytest.raises(ParseError, match="at least one generator"):
        load_scenario("scenario x\nprime 3\ncap 5\n")
    with pytest.raises(ParseError, match="share one page index"):
        load_scenario(MINIMAL + "\n[differentials]\n"
                      "page=2 x -> dx\npage=3 x^2 -> x*dx\n")
    with pytest.raises(ParseError, match="needs height"):
        load_scenario("scenario x\nprime 3\ncap 5\n[generators]\nu truncated 2\n")
    with pytest.raises(ParseError, match="needs filtration"):
        load_scenario(MINIMAL + "\n[abutment]\ny polynomial 2\n")
    with pytest.raises(ParseError, match="must be nonzero"):
        load_scenario(MINIMAL + "\n[differentials]\npage=2 x -> 0\n")
    with pytest.raises(ParseError, match="unknown header"):
        load_scenario("scenario x\nprime 3\nbudget 4\ncap 5\n"
                      "[generators]\nv polynomial 2\n")
    with pytest.raises(ParseError, match="before rule sections"):
        load_scenario("scenario x\n[differentials]\npage=2 x -> y\n")


def test_bad_generator_kind_rejected():
    with pytest.raises(ParseError, match="bad generator"):
        load_scenario("scenario x\nprime 3\ncap 5\n[generators]\nv weird 2\n")
