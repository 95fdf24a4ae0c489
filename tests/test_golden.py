"""Byte-for-byte locks on canonical JSON reports.

Each file under data/golden is the `--format json` report of the command
listed for it below, at the default seed, run from the repository root.
The test reruns the command and compares bytes, so any change to a
coefficient, a check name or the order of a basis shows up here.  Rewrite
a golden file only together with a change that says why its report
changes.
"""

import os

import pytest

from contactk import cli, linalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "golden")

CASES = {
    "singular_heis2_pi1_c1_nilpotent2": [
        "singular", "--algebra", "heisenberg:2", "--u", "pi:1", "--c", "1",
        "--pi", "nilpotent2",
    ],
    "singular_heis2_pi2_c2": [
        "singular", "--algebra", "heisenberg:2", "--u", "pi:2", "--c", "2",
    ],
    "singular_heis3_pi1_c1": [
        "singular", "--algebra", "heisenberg:3", "--u", "pi:1", "--c", "1",
    ],
    "singular_heis3_pi3_c3": [
        "singular", "--algebra", "heisenberg:3", "--u", "pi:3", "--c", "3",
    ],
    "classify_heis2": ["classify", "--algebra", "heisenberg:2"],
    "classify_heis1_audit4": [
        "classify", "--algebra", "heisenberg:1", "--audit-cutoff", "4",
    ],
    "classify_heis1_nilpotent2": [
        "classify", "--algebra", "heisenberg:1", "--pi", "nilpotent2",
    ],
    "rumin_heis1": ["rumin", "--algebra", "heisenberg:1"],
    "rumin_nonuni": ["rumin", "--algebra", "tests/data/nonuni.json"],
    "classify_nonuni": ["classify", "--algebra", "tests/data/nonuni.json"],
    "verify_core_heis1": ["verify-core", "--algebra", "heisenberg:1"],
    "verify_core_heis2_exterior": [
        "verify-core", "--algebra", "heisenberg:2", "--suite", "exterior",
    ],
    "verify_core_nonuni_exterior": [
        "verify-core", "--algebra", "tests/data/nonuni.json",
        "--suite", "exterior",
    ],
    "verify_core_heis2_rebased_contact_sp": [
        "verify-core", "--algebra", "tests/data/heis2_rebased.json",
        "--suite", "contact,sp",
    ],
    "classify_sl2_aff1_trivial": [
        "classify", "--algebra", "tests/data/sl2_aff1.json", "--pi", "trivial",
    ],
    "classify_sl2_aff1_tr_ad": [
        "classify", "--algebra", "tests/data/sl2_aff1.json", "--pi", "tr-ad",
    ],
    "classify_heis1_aff1_trivial": [
        "classify", "--algebra", "tests/data/heis1_aff1.json",
        "--pi", "trivial",
    ],
    "classify_heis1_aff1_tr_ad": [
        "classify", "--algebra", "tests/data/heis1_aff1.json", "--pi", "tr-ad",
    ],
    "rumin_heis1_aff1": ["rumin", "--algebra", "tests/data/heis1_aff1.json"],
    "annihilation_sl2_t4": [
        "annihilation", "--algebra", "sl2", "--truncation", "4",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    # The report echoes a file datum's path, so run from the repo root.
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    code = cli.main(CASES[name] + ["--format", "json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        want = fh.read()
    assert out.read_bytes() == want


def test_classify_heis2_needs_no_exact_fallback(tmp_path, monkeypatch):
    # every singular space of the scan is found mod P, lifted and checked:
    # with the exact elimination disabled the report is still the golden one
    def no_fallback(columns):
        raise AssertionError("singular_space fell back to exact elimination")

    monkeypatch.setattr(linalg, "exact_kernel", no_fallback)
    monkeypatch.chdir(ROOT)
    out = tmp_path / "report.json"
    code = cli.main(CASES["classify_heis2"] + ["--format", "json", "--out",
                                               str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN, "classify_heis2.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
