import json
import pathlib

import pytest

from thhlab.cli import main
from thhlab.scenarios import CapTooSmall
from thhlab.serialize import ParseError, load_scenario

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

BROKEN = """
scenario broken
prime 3
cap 10

[generators]
x polynomial 2

[abutment]
y polynomial 4 filtration=0
"""


def test_list_shows_catalog(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("thhz", "thh-ell-log", "ausoni", "les-ku", "inputs"):
        assert name in out


def test_run_single_scenario_json(capsysbinary):
    code = main(["run", "thhz", "--prime", "3", "--cap", "20", "--format", "json"])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["scenario"] == "thhz"
    assert doc["cap"] == 20
    assert all(c["status"] != "fail" for c in doc["checks"])


def test_run_default_cap(capsysbinary):
    assert main(["run", "thhz", "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["prime"] == 3
    assert doc["cap"] == 30


def test_run_all_json(capsysbinary):
    code = main(["run", "--all", "--cap", "20", "--format", "json"])
    assert code == 0
    docs = json.loads(capsysbinary.readouterr().out)
    assert [d["scenario"] for d in docs] == [
        "thhz", "thh-ell-log", "thh-ku-basechange", "thh-ku-ss", "ausoni",
        "les-ell", "les-ku", "suspension", "tor-oracle", "inputs",
    ]


def test_run_scenario_file(capsysbinary):
    code = main(["run", "--scenario-file", str(DOCS / "thhz.scenario"),
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["scenario"] == "thhz-file"


def test_out_writes_file(tmp_path, capsysbinary):
    target = tmp_path / "report.json"
    code = main(["run", "thh-ku-basechange", "--cap", "20",
                 "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsysbinary.readouterr().out == b""
    assert json.loads(target.read_text())["scenario"] == "thh-ku-basechange"


def test_failing_file_scenario_exits_1(tmp_path, capsysbinary):
    path = tmp_path / "broken.scenario"
    path.write_text(BROKEN)
    code = main(["run", "--scenario-file", str(path), "--format", "json"])
    assert code == 1
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["checks"][-1]["status"] == "fail"


def test_usage_errors_exit_2(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["run", "--scenario-file", "/definitely/not/here"]) == 2
    assert main(["run", "thhz", "--prime", "2", "--cap", "10"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "thhz", "--all"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "thhz", "--format", "yaml"])
    assert exc.value.code == 2


def test_unreadable_scenario_file_and_unwritable_out_exit_2(tmp_path, capsys):
    # a directory cannot be read as a scenario file nor written as a report
    assert main(["run", "--scenario-file", str(tmp_path)]) == 2
    assert main(["run", "thhz", "--cap", "30", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("thhlab: ") for line in err)
    assert all(str(tmp_path) in line for line in err)


def test_running_out_of_memory_exits_2_with_one_line(monkeypatch, capsys):
    # numpy's _ArrayMemoryError is a MemoryError with a message like the
    # first; a bare MemoryError has none
    from thhlab import cli

    numpy_like = MemoryError("Unable to allocate 14.6 TiB for an array with shape "
                             "(2000000000000,) and data type int64")
    for error, line in ((numpy_like, f"thhlab: out of memory: {numpy_like}"),
                        (MemoryError(), "thhlab: out of memory")):
        def exhausted(name, p, cap, error=error):
            raise error
        monkeypatch.setattr(cli, "run_scenario", exhausted)
        assert main(["run", "thhz", "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [line]


def test_prime_past_the_int64_bound_is_a_usage_error(capsys):
    assert main(["run", "thhz", "--prime", "1099511627791"]) == 2
    assert "2^31" in capsys.readouterr().err


def test_largest_accepted_prime_finishes(capsysbinary):
    # thhz asks for candidate lanes p pages ahead; the scan stops at the cap
    with pytest.warns(CapTooSmall):
        assert main(["run", "thhz", "--prime", str(2**31 - 1), "--cap", "2"]) == 0
    assert b"p=2147483647" in capsysbinary.readouterr().out


def test_negative_cap_is_a_usage_error_on_every_path(tmp_path, capsys):
    assert main(["run", "thhz", "--cap", "-5"]) == 2
    assert "cap must be nonnegative" in capsys.readouterr().err
    example = str(DOCS / "thhz.scenario")
    assert main(["run", "--scenario-file", example, "--cap", "-5"]) == 2
    assert "cap must be nonnegative" in capsys.readouterr().err
    path = tmp_path / "negative.scenario"
    path.write_text((DOCS / "thhz.scenario").read_text().replace("cap 36", "cap -1"))
    assert main(["run", "--scenario-file", str(path)]) == 2
    assert "cap must be nonnegative" in capsys.readouterr().err


_NOT_INTEGERS = {"prime": "3.5", "cap": "3.5", "height": "abc", "filtration": "zz", "page": "two"}


@pytest.mark.parametrize(
    "key,lineno",
    [("prime", 2), ("cap", 3), ("height", 7), ("filtration", 7), ("page", 10)],
)
def test_non_integer_header_is_a_parse_error_naming_its_line(tmp_path, capsys, key, lineno):
    fields = {"prime": "3", "cap": "12", "height": "3", "filtration": "2", "page": "2",
              key: _NOT_INTEGERS[key]}
    text = ("scenario bad\nprime {prime}\ncap {cap}\n"
            "\n[generators]\nx polynomial 2\ny truncated 2 height={height} filtration={filtration}\n"
            "\n[differentials]\npage={page} y -> x\n").format(**fields)
    message = f"line {lineno}: {key} must be an integer, got '{_NOT_INTEGERS[key]}'"
    with pytest.raises(ParseError) as exc:
        load_scenario(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    assert main(["run", "--scenario-file", str(path)]) == 2
    assert capsys.readouterr().err == f"thhlab: {message}\n"


@pytest.mark.parametrize("prime", [4, 2])
def test_bad_prime_header_is_a_parse_error_naming_its_line(tmp_path, capsys, prime):
    text = f"scenario bad\nprime {prime}\ncap 12\n\n[generators]\nx polynomial 2\n"
    message = f"line 2: p must be an odd prime, got {prime}"
    with pytest.raises(ParseError) as exc:
        load_scenario(text)
    assert str(exc.value) == message
    path = tmp_path / "bad.scenario"
    path.write_text(text)
    assert main(["run", "--scenario-file", str(path)]) == 2
    assert capsys.readouterr().err == f"thhlab: {message}\n"


def test_generator_kind_against_its_parity_is_a_parse_error(tmp_path, capsys):
    # l1 has odd degree 5; as exterior of degree 4 it clashes with its kind
    path = tmp_path / "parity.scenario"
    path.write_text((DOCS / "thhz.scenario").read_text().replace("l1 exterior 5\n",
                                                                  "l1 exterior 4\n"))
    assert main(["run", "--scenario-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("thhlab: bad generator 'l1': ") and "odd total degree" in err
    assert err.count("\n") == 1
