from fractions import Fraction

import pytest

from contactk import report


def test_passing_probe_records_null_witness():
    suite = report.Suite()
    with suite.probe("probe.pass", "every case holds") as pr:
        pr.check(True, case=0)
        pr.eq(Fraction(2), 2, case=1)
    assert suite.checks == [{
        "name": "probe.pass",
        "statement": "every case holds",
        "status": "pass",
        "witness": None,
    }]


def test_failing_probe_keeps_the_first_witness():
    suite = report.Suite()
    with suite.probe("probe.eq", "both sides agree") as pr:
        pr.eq(1, 1, case=0)
        pr.eq(Fraction(1, 2), 3, case=1)
        pr.check(False, case=2)
    with suite.probe("probe.check", "every case holds") as pr:
        pr.check(True, case=0)
        pr.check(False, case=1)
        pr.eq(1, 2, case=2)
    assert [(c["status"], c["witness"]) for c in suite.checks] == [
        ("fail", {"case": 1, "lhs": "1/2", "rhs": 3}),
        ("fail", {"case": 1}),
    ]


def test_probe_block_that_raises_records_nothing():
    suite = report.Suite()
    with pytest.raises(KeyError):
        with suite.probe("probe.raises", "never recorded") as pr:
            pr.check(False, case=0)
            raise KeyError("internal error")
    assert suite.checks == []
