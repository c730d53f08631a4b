"""Smoke tests for the tools beside the library: bench/tracer.py and scripts/."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)


def test_tracer_installs_on_the_library():
    # the tracer patches library names from outside; a deleted name breaks it
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'bench')!r})\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer())\n"
    )
    done = _run(["-c", script])
    assert done.returncode == 0, done.stderr


def test_dimension_tables_stable_page_matches_answer():
    done = _run([str(ROOT / "scripts" / "dimension_tables.py"),
                 "--prime", "3", "--cap", "30"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    header = lines.index(next(l for l in lines if l.split()[:2] == ["n", "start"]))
    rows = [l.split() for l in lines[header + 1: header + 32]]
    assert [int(r[0]) for r in rows] == list(range(31))
    assert all(r[2] == r[3] for r in rows)  # stable == answer in every degree


def test_run_catalog_json_matches_the_catalog_golden():
    done = _run([str(ROOT / "scripts" / "run_catalog.py"), "--primes", "3",
                 "--format", "json"])
    assert done.returncode == 0, done.stderr
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while pos < len(done.stdout):
        doc, pos = decoder.raw_decode(done.stdout, pos)
        docs.append(doc)
        pos += 1  # each document ends in one newline
    golden = json.loads((ROOT / "tests" / "data" / "catalog-p3.json").read_text())
    assert len(docs) == 10 and docs == golden
    assert re.fullmatch(r"peak RSS \d+\.\d MiB\n", done.stderr)  # stdout stays the reports


def test_report_digests_match_the_catalog_golden():
    done = _run([str(ROOT / "scripts" / "report_digests.py"), "--primes", "3",
                 "--formats", "json"])
    assert done.returncode == 0, done.stderr
    want = hashlib.sha256((ROOT / "tests" / "data" / "catalog-p3.json").read_bytes()).hexdigest()
    assert done.stdout.splitlines() == [f"all-p3 json {want}"]


def test_page_turns_and_the_tor_oracle_never_import_numpy_ma():
    # bare np.unique, and np.isin on arrays, import numpy.ma on first use,
    # which costs a fresh process 11-14 ms and 1.6 MiB; thhz turns a plain
    # page, thh-ell-log adds the monomial maps of check_morphism, les-ell
    # and les-ku the image tables of check_les, and the closed form counts
    # the buckets of a plain page that is never sorted
    script = (
        "import sys\n"
        "from thhlab import graded_algebra as ga, tor_engine as tor\n"
        "from thhlab.scenarios import run_scenario\n"
        "assert run_scenario('thhz', 3, 60).ok\n"
        "assert run_scenario('thh-ku-ss', 3, 60).ok\n"
        "assert run_scenario('thh-ell-log', 3, 60).ok\n"
        "assert run_scenario('les-ell', 3, 30).ok\n"
        "assert run_scenario('les-ku', 3, 30).ok\n"
        "alg = ga.make_algebra(3, [ga.exterior('y', 3), ga.polynomial('x', 2), ga.polynomial('w', 4)])\n"
        "tor.tor_oracle(alg, tor.fp_module(alg), tor.fp_module(alg), 14)\n"
        "assert tor.tor_closed_form(alg, tor.fp_module(alg), tor.fp_module(alg), 14).bigraded_dims(14)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    done = _run(["-c", script])
    assert done.returncode == 0, done.stderr


def test_bench_record_sets_the_median_shift_against_the_parent_spread():
    # the rule for a claimed gain: the medians differ by more than the
    # parent's interquartile spread, in the metric's better direction
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import bench_record
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    parent = bench_record.spread([1.0, 1.1, 1.2, 1.3, 1.4])
    assert (parent["q1"], parent["median"], parent["q3"]) == (1.1, 1.2, 1.3)
    faster = bench_record.spread([0.8, 0.85, 0.9, 0.95, 1.0])
    assert bench_record.median_shift(parent, faster, "lower") == "-0.3 against 0.2 better"
    assert bench_record.median_shift(parent, faster, "higher") == "-0.3 against 0.2 worse"
    near = bench_record.spread([1.0, 1.2, 1.3, 1.4, 1.5])
    assert bench_record.median_shift(parent, near, "lower") == "+0.1 against 0.2 within"
    assert bench_record.median_shift(parent, parent, "lower") == "+0 against 0.2 within"


def test_src_lines_counts_code_lines_only():
    done = _run([str(ROOT / "scripts" / "src_lines.py")])
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    names = sorted(p.name for p in (ROOT / "src" / "thhlab").glob("*.py"))
    assert [name for _, name in rows] == names + ["total"]
    assert sum(int(n) for n, _ in rows[:-1]) == int(rows[-1][0]) > 0
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import src_lines
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    text = ('"""Module\n\ndoc."""\n\n# a comment\nx = (1,\n     2)  # trailing\n\n\n'
            'class A:\n    """Doc."""\n\n    def f(self):\n        """Doc\n        more."""\n'
            '        return """not a\n        docstring"""\n')
    assert src_lines.code_lines(text) == 6  # two of x, class, def, two of the return
