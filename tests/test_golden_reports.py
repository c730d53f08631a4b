"""Byte-identity of whole-catalog reports against committed golden files.

The behaviour contract is the json schema, the text report and the exit
codes; refactors of the layers underneath must leave every byte unchanged.
The golden files in tests/data were written by `thhlab run --all --prime P`
(json for P = 3, 5, 7 and 11, text for P = 3), and by `thhz`,
`thh-ell-log` and `thh-ku-ss` at p = 3, cap 170 in json: the first two page
turns declare d on gamma_3, gamma_9 and gamma_27, the third turns the
labeled Section 8 page, whose labels are not sorted by shift.  They are
compared byte for byte.

This module sorts after test_acceptance.py on purpose: that module's
runtime budget is measured from its own import.
"""

import pathlib

import pytest

from thhlab.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "prime, fmt, golden",
    [
        (3, "json", "catalog-p3.json"),
        (5, "json", "catalog-p5.json"),
        (7, "json", "catalog-p7.json"),
        (11, "json", "catalog-p11.json"),
        (3, "text", "catalog-p3.txt"),
    ],
)
def test_catalog_report_matches_golden_bytes(prime, fmt, golden, capsysbinary):
    code = main(["run", "--all", "--prime", str(prime), "--format", fmt])
    assert code == 0
    assert capsysbinary.readouterr().out == (DATA / golden).read_bytes()


@pytest.mark.parametrize(
    "scenario, golden",
    [
        ("thhz", "thhz-p3-cap170.json"),
        ("thh-ell-log", "thh-ell-log-p3-cap170.json"),
        ("thh-ku-ss", "thh-ku-ss-p3-cap170.json"),
    ],
)
def test_divided_power_atom_report_matches_golden_bytes(scenario, golden, capsysbinary):
    code = main(["run", scenario, "--prime", "3", "--cap", "170", "--format", "json"])
    assert code == 0
    assert capsysbinary.readouterr().out == (DATA / golden).read_bytes()
