import json
import os

import pytest

from contactk import cli


DATA = os.path.join(os.path.dirname(__file__), "data", "heisenberg1.json")


def run(argv):
    return cli.main(argv)


def test_verify_core_sl2_passes(capsys):
    assert run(["verify-core", "--algebra", "sl2"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "checks passed" in out


def test_empty_suite_is_bad_config(capsys):
    assert run(["verify-core", "--algebra", "sl2", "--suite", ""]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_suite_is_bad_config():
    assert run(["verify-core", "--suite", "contact,nope"]) == 2


def test_unknown_algebra_is_bad_config():
    assert run(["verify-core", "--algebra", "does-not-exist.json"]) == 2


def test_suite_subset(capsys):
    assert run(["verify-core", "--algebra", "sl2", "--suite", "contact"]) == 0
    out = capsys.readouterr().out
    assert "exterior." not in out and "contact." in out


def test_classify_heisenberg_table(tmp_path):
    out = tmp_path / "report.json"
    code = run([
        "classify", "--algebra", "heisenberg:1", "--c-min", "-3",
        "--c-max", "6", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    table = next(
        c for c in doc["checks"] if c["name"] == "classify.table"
    )["witness"]
    reducible = sorted(
        (row["u"], row["c"]) for row in table
        if row["verdict"].startswith("reducible")
    )
    assert reducible == [("pi:1", 1), ("pi:1", 3), ("trivial", 0)]
    deg2 = [row for row in table if "degrees 2" in row["verdict"]]
    assert [(r["u"], r["c"]) for r in deg2] == [("pi:1", 1)]


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["annihilation", "--algebra", "sl2", "--format", "json",
            "--seed", "7"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_file_algebra_input(tmp_path):
    out = tmp_path / "r.json"
    code = run([
        "verify-core", "--algebra", DATA, "--suite", "contact",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["algebra"].endswith("heisenberg1.json")
    assert doc["summary"]["failed"] == 0


def test_rumin_command(tmp_path):
    out = tmp_path / "r.json"
    code = run([
        "rumin", "--algebra", "heisenberg:1", "--trials", "8",
        "--pi", "nilpotent2", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    names = {c["name"] for c in doc["checks"]}
    assert "rumin.exactness_term_1" in names
    assert "rumin.homomorphism" in names


def test_singular_command(capsys):
    code = run([
        "singular", "--algebra", "heisenberg:1", "--u", "pi:1", "--c", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "singular.basis" in out


def test_singular_rational_scalar(capsys):
    assert run([
        "singular", "--algebra", "sl2", "--u", "trivial", "--c", "3/2",
    ]) == 0


def test_json_schema_keys(tmp_path):
    out = tmp_path / "r.json"
    run(["annihilation", "--algebra", "sl2", "--format", "json",
         "--out", str(out)])
    doc = json.loads(out.read_text())
    assert set(doc) == {"tool", "version", "command", "config", "checks",
                        "summary"}
    for c in doc["checks"]:
        assert set(c) == {"name", "statement", "status", "witness"}
        assert c["status"] in ("pass", "fail", "info")


def test_nilpotent2_rejected_for_perfect_algebra():
    assert run(["singular", "--algebra", "sl2", "--pi", "nilpotent2"]) == 2


def test_failing_check_sets_exit_code(monkeypatch, capsys):
    def forced_failure(suite, data, rng, truncation):
        suite.record("forced.failure", "forced failure for the exit path",
                     False, {"lhs": "0", "rhs": "1"})

    monkeypatch.setattr(cli, "suite_annihilation", forced_failure)
    assert cli.main(["annihilation", "--algebra", "sl2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_annihilation_truncation_floor_is_bad_config(monkeypatch, capsys):
    def never(*_args):  # pragma: no cover - the floor is checked first
        raise AssertionError("suite ran below the truncation floor")

    monkeypatch.setattr(cli, "suite_annihilation", never)
    for t in ("3", "0", "-1"):
        assert run(["annihilation", "--algebra", "sl2",
                    "--truncation", t]) == 2
        assert "--truncation >= 4" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"dim": 3, "brackets": [[0, 1, 5, 1, 1]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[-3, 1, 2, 1, 1]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 0]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1]], "theta": [0, 0, "1/0"]},
    {"dim": 3, "brackets": [[0, 1, 2, 1]], "theta": [0, 0, 1]},
    [3, [[0, 1, 2, 1, 1]], [0, 0, 1]],
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1]]},
    {"dim": [3], "brackets": [[0, 1, 2, 1, 1]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1]], "theta": 1},
], ids=["index-too-large", "index-negative", "zero-denominator",
        "zero-theta-denominator", "short-bracket", "top-level-list",
        "no-theta", "list-dim", "scalar-theta"])
def test_malformed_algebra_file_is_bad_config(doc, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-core", "--algebra", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.strip() != "error:"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_central_scalar_is_bad_config(value, capsys):
    assert run(["singular", "--algebra", "heisenberg:1", "--c", value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err
    assert "Traceback" not in err
