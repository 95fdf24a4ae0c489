import json
import os
import types

import pytest

from contactk import cli
from contactk import pseudoforms as pfm


DATA = os.path.join(os.path.dirname(__file__), "data", "heisenberg1.json")


def run(argv):
    return cli.main(argv)


def one_line_error(capsys):
    """The stderr of an exit-2 run: one `error:` line, no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.strip() != "error:"
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


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


def test_unknown_algebra_is_bad_config(capsys):
    assert run(["verify-core", "--algebra", "does-not-exist.json"]) == 2
    assert "does-not-exist.json" in one_line_error(capsys)


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


def test_nilpotent2_rejected_for_perfect_algebra(capsys):
    assert run(["singular", "--algebra", "sl2", "--pi", "nilpotent2"]) == 2
    assert "perfect" in one_line_error(capsys)


def test_failing_check_sets_exit_code(monkeypatch, capsys):
    def forced_failure(suite, data, rng, truncation):
        suite.record("forced.failure", "forced failure for the exit path",
                     False, {"lhs": "0", "rhs": "1"})

    monkeypatch.setattr(cli, "suite_annihilation", forced_failure)
    assert cli.main(["annihilation", "--algebra", "sl2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_unpredicted_reducible_point_fails_its_dimension(monkeypatch, tmp_path):
    # a rule that calls every point irreducible predicts no dimension for
    # the reducible trivial point at c = 0: recorded as a fail, not raised
    monkeypatch.setattr(cli.palg, "expected_verdict",
                        lambda kind, p, c, nn: (False, ()))
    out = tmp_path / "report.json"
    assert run(["classify", "--algebra", "heisenberg:1", "--c-min", "0",
                "--c-max", "0", "--format", "json", "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    dim = checks["classify.trivial.c=0.dimension"]
    assert dim["status"] == "fail"
    assert dim["witness"] == {"nonconstant": 2, "predicted": None}


def test_annihilation_truncation_floor_is_bad_config(monkeypatch, capsys):
    def never(*_args):  # pragma: no cover - the floor is checked first
        raise AssertionError("suite ran below the truncation floor")

    monkeypatch.setattr(cli, "suite_annihilation", never)
    for t in ("3", "0", "-1"):
        assert run(["annihilation", "--algebra", "sl2",
                    "--truncation", t]) == 2
        assert "--truncation >= 4" in one_line_error(capsys)


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
    {"dim": 3, "brackets": [[0, 1, 2, 1.9, 1]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1.5]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, {}, 1]], "theta": [0, 0, 1]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1]], "theta": [0, 0, [True, 2]]},
    {"dim": 3, "brackets": [[0, 1, 2, 1, 1]], "theta": [0, 0, [None, 1]]},
], ids=["index-too-large", "index-negative", "zero-denominator",
        "zero-theta-denominator", "short-bracket", "top-level-list",
        "no-theta", "list-dim", "scalar-theta", "float-numerator",
        "float-denominator", "dict-numerator", "bool-theta-pair",
        "null-theta-pair"])
def test_malformed_algebra_file_is_bad_config(doc, tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert run(["verify-core", "--algebra", str(path)]) == 2
    one_line_error(capsys)


@pytest.mark.parametrize("value", ["1/0", "abc", "1e1000000"])
def test_bad_central_scalar_is_bad_config(value, capsys):
    assert run(["singular", "--algebra", "heisenberg:1", "--c", value]) == 2
    assert value in one_line_error(capsys)


@pytest.mark.parametrize("argv, needle", [
    (["verify-core", "--algebra", "heisenberg:x"], "heisenberg:x"),
    (["verify-core", "--algebra", "heisenberg:0"], "heisenberg:0"),
    (["singular", "--algebra", "heisenberg:1", "--u", "pi:x"], "pi:x"),
    (["singular", "--algebra", "heisenberg:1", "--u", "pi:9"], "pi:9"),
    (["singular", "--algebra", "sl2", "--out",
      os.path.join("no-such-dir", "r.json")], "no-such-dir"),
], ids=["heisenberg-x", "heisenberg-0", "u-pi-x", "u-pi-9", "out-dir"])
def test_bad_input_is_bad_config(argv, needle, tmp_path, monkeypatch,
                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    assert needle in one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["classify", "--trials", "3"],
    ["singular", "--seed", "1"],
    ["verify-core", "--pi", "trivial"],
    ["annihilation", "--degree-bound", "4"],
    ["rumin", "--truncation", "4"],
], ids=lambda argv: " ".join(argv[:2]))
def test_unread_option_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--algebra", "sl2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv, keys", [
    (["verify-core", "--suite", "contact"], {"seed", "suite"}),
    (["rumin", "--degree-bound", "2"],
     {"seed", "degree_bound", "trials", "pi"}),
    (["singular"], {"pi", "u", "c"}),
    (["classify", "--c-min", "0", "--c-max", "0"],
     {"pi", "c_min", "c_max"}),
    (["classify", "--c-min", "0", "--c-max", "0", "--audit-cutoff", "4"],
     {"pi", "c_min", "c_max", "audit_cutoff"}),
    (["annihilation"], {"seed", "truncation"}),
], ids=["verify-core", "rumin", "singular", "classify", "classify-audit",
        "annihilation"])
def test_config_echoes_only_what_the_command_reads(argv, keys, tmp_path):
    out = tmp_path / "r.json"
    assert run(argv + ["--algebra", "sl2", "--format", "json",
                       "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["config"]) == {"algebra"} | keys


def test_commands_without_pi_build_no_twist(monkeypatch, capsys):
    def never(*_args):
        raise AssertionError("built a twist the command does not read")

    monkeypatch.setattr(cli, "builtin_twist", never)
    assert run(["verify-core", "--algebra", "sl2", "--suite", "contact"]) == 0
    assert run(["annihilation", "--algebra", "sl2"]) == 0


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_error_is_not_bad_config(error, monkeypatch):
    def broken(suite, data):
        raise error("internal")

    monkeypatch.setattr(cli, "suite_contact", broken)
    with pytest.raises(error):
        run(["verify-core", "--algebra", "sl2", "--suite", "contact"])


@pytest.mark.parametrize("argv, needle", [
    (["classify", "--c-min", "3", "--c-max", "0"], "--c-min 3"),
    (["classify", "--c-min", "7"], "--c-max 6"),
    (["classify", "--c-min", "0", "--c-max", "0", "--audit-cutoff", "0"],
     "--audit-cutoff"),
    (["classify", "--c-min", "0", "--c-max", "0", "--audit-cutoff", "2"],
     "--audit-cutoff"),
    (["rumin", "--trials", "0"], "--trials"),
    (["rumin", "--trials", "-2"], "--trials"),
    (["rumin", "--degree-bound", "1"], "--degree-bound"),
    (["rumin", "--degree-bound", "-1"], "--degree-bound"),
], ids=["c-min-above-c-max", "c-min-above-default-c-max", "audit-cutoff-0",
        "audit-cutoff-2", "trials-0", "trials-negative", "degree-bound-1",
        "degree-bound-negative"])
def test_out_of_range_input_is_bad_config(argv, needle, monkeypatch,
                                          capsys):
    def never(*_args):  # pragma: no cover - the range is checked first
        raise AssertionError("ran on an out-of-range input")

    monkeypatch.setattr(cli, "run_classify", never)
    monkeypatch.setattr(cli, "suite_rumin", never)
    assert run(argv + ["--algebra", "sl2"]) == 2
    assert needle in one_line_error(capsys)


@pytest.mark.parametrize("argv", [
    ["classify", "--c-min", "2", "--c-max", "2", "--audit-cutoff", "3"],
    ["rumin", "--trials", "1", "--degree-bound", "2"],
], ids=["classify", "rumin"])
def test_range_floors_are_accepted(argv, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run_classify", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "suite_rumin", lambda *args: ran.append(args))
    assert run(argv + ["--algebra", "sl2"]) == 0
    assert len(ran) == 1


def test_rumin_trials_sets_the_sample_count(monkeypatch):
    # rumin.completion_independent maps each drawn element twice, the
    # second time with reverse=True; rumin.vanishes_on_ideal maps each of
    # its draws once.  Each check draws trials // 2 elements, at least one.
    calls = []

    def counting(env, a, reverse=False):
        calls.append(reverse)
        return pfm.rumin_map(env, a, reverse)

    monkeypatch.setattr(cli, "pfm", types.SimpleNamespace(
        **dict(vars(pfm), rumin_map=counting)))
    draws = []
    for trials in (1, 2, 50):
        calls.clear()
        assert run(["rumin", "--algebra", "sl2", "--trials", str(trials),
                    "--degree-bound", "2", "--out", os.devnull]) == 0
        completion = calls.count(True)
        draws.append((completion, calls.count(False) - completion))
    assert draws == [(1, 1), (1, 1), (25, 25)]


def test_failed_rumin_completion_is_a_recorded_fail(monkeypatch, tmp_path):
    # a negated constant differential leaves the completion outside the
    # primitive part: every place that completes records a fail with the
    # message, and the run ends with exit 1, not a traceback
    d0_terms = pfm._d0_terms
    monkeypatch.setattr(pfm, "_d0_terms", lambda data, a: {
        k: -v for k, v in d0_terms(data, a).items()})
    expect = {
        "verify-core": ["exterior.rumin_complex"],
        "rumin": ["rumin.completion_independent", "rumin.vanishes_on_ideal",
                  "rumin.complex_compositions"],
    }
    for command, names in expect.items():
        out = tmp_path / f"{command}.json"
        assert run([command, "--algebra", "heisenberg:1", "--format", "json",
                    "--out", str(out)]) == 1
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        for name in names:
            assert checks[name]["status"] == "fail"
            assert checks[name]["witness"]["error"] == \
                "completion left the primitive subspace"
