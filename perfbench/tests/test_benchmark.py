"""Tests of the benchmark itself: inputs, correctness gate, tracer, manifest."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import datums  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run_cli(args, out):
    from contactk import cli

    return cli.main(list(args) + ["--format", "json", "--out", str(out)])


def test_same_seed_gives_identical_datum_files(tmp_path):
    names = [base for base, _ in workloads.REBASED]
    files = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / label).mkdir()
        paths = datums.write_datums(names, seed, tmp_path / label)
        files[label] = [p.read_bytes() for p in paths]
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_rebased_datums_load_and_match_the_rule(tmp_path):
    from contactk import contact_lie

    jobs = workloads.make_jobs("points-rebased", 3, tmp_path)
    by_datum = {}
    for job in jobs:
        by_datum.setdefault(job.algebra, []).append(job)
    assert len(by_datum) == len(workloads.REBASED)
    for path, datum_jobs in by_datum.items():
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        data = contact_lie.load_algebra_file(path)
        assert data.dim == doc["dim"]
        assert any(den != 1 for *_, den in doc["brackets"]) or data.dim == 3
        # the N=1 points are cheap; of the N=2 ones check the trivial factor
        cheap = [j for j in datum_jobs if data.dim == 3 or "trivial" in j.args]
        assert cheap
        for k, job in enumerate(cheap):
            out = tmp_path / f"{Path(path).stem}-{k}.json"
            status = _run_cli(job.args, out)
            assert workloads.check_report(job, status, out) is None, job.label()


def test_gate_rejects_wrong_answers(tmp_path):
    job = workloads.make_jobs("points-heis3", 1, tmp_path)[0]
    _, n, point = job.expect
    want = workloads.EXPECTED["singular_dim"][n][point]
    basis = [{"degree": 0}] * want
    report = {"checks": [{"name": "singular.basis", "status": "info",
                          "witness": basis}]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert workloads.check_report(job, 0, path) is None
    assert workloads.check_report(job, 1, path) == "exit status 1"
    report["checks"][0]["witness"] = basis[1:]
    path.write_text(json.dumps(report), encoding="utf-8")
    assert "rule gives" in workloads.check_report(job, 0, path)
    report["checks"].append({"name": "singular.constants", "status": "fail",
                             "witness": {}})
    path.write_text(json.dumps(report), encoding="utf-8")
    assert "failed checks" in workloads.check_report(job, 0, path)


def test_classification_table_gate(tmp_path):
    job = workloads.make_jobs("scan-heis2", 1, tmp_path)[0]
    rows = [{"u": u, "c": c, "verdict": v, "singular_dim": d, "cutoff": 2}
            for u, c, v, d in workloads.EXPECTED["classify"]["heisenberg:2"]]
    assert len(rows) == 48
    report = {"checks": [{"name": "classify.table", "status": "info",
                          "witness": rows}]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert workloads.check_report(job, 0, path) is None
    assert (rows[2]["u"], rows[2]["c"]) == ("trivial", -1)
    rows[2]["verdict"] = "reducible at degrees 1"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert "differs from the rule" in workloads.check_report(job, 0, path)


def test_traced_job_counts_spans(tmp_path):
    out = tmp_path / "job"
    cmd = [sys.executable, str(BENCH / "tracing.py"), str(out), "singular",
           "--algebra", "sl2", "--u", "pi:1", "--c", "1", "--format", "json",
           "--out", f"{out}.report"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
    totals = tracing.summarize([out])
    metrics = tracing.layer_metrics(totals, 2.0, 1.5)
    assert metrics["pseudoalgebra.singular_space.calls"][0] == 1
    assert metrics["contact_lie.resolve_algebra.calls"][0] == 1
    assert metrics["pseudoalgebra.singular_space.useful_ratio"][0] == 1.0
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.5)
    assert 0 < metrics["pseudoalgebra.e_star_raw.self_s"][0]
    for span in ("pseudoalgebra.to_left_normal", "enveloping.mul"):
        assert 0 < totals["self_s"][span] <= totals["busy_s"][span]
    assert metrics["linalg.LinearSystem.kernel_dim"][0] >= 4


def test_manifest_matches_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.LAYER_METRICS]
