"""Check records and deterministic report rendering.

A report is a plain dict with the tool version, the echoed configuration,
one record per check (name, human-readable statement of the verified
identity, status, witness data for failures) and summary counts.  The
machine-readable form is canonical JSON: keys sorted, rationals rendered
as strings, no timestamps, so byte-identical output for identical
configuration and seed.

A check is recorded in one step: `Suite.record` for a single verdict,
`Suite.probe` for a family of cases that keeps the first failing case as
the witness, `Suite.info` for a payload that is not a verdict.
"""

import contextlib
import json
from fractions import Fraction

from . import __version__


def _plain(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {_plain_key(k): _plain(v) for k, v in sorted(
            value.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _plain_key(key):
    if isinstance(key, (str, int)):
        return str(key)
    return repr(key)


class Probe:
    """Aggregates a family of cases, keeping the first failing witness."""

    def __init__(self):
        self.ok = True
        self.witness = None

    def check(self, good, **case):
        if not good and self.witness is None:
            self.witness = case or {"case": "unspecified"}
        self.ok = self.ok and bool(good)
        return good

    def eq(self, lhs, rhs, **case):
        good = lhs == rhs
        if not good and self.witness is None:
            self.witness = dict(case, lhs=lhs, rhs=rhs)
        self.ok = self.ok and good
        return good


class Suite:
    """Collects check records; failures carry a minimal witness."""

    def __init__(self):
        self.checks = []

    def record(self, name, statement, ok, witness=None):
        entry = {
            "name": name,
            "statement": statement,
            "status": "pass" if ok else "fail",
            "witness": None if ok else _plain(witness or {}),
        }
        self.checks.append(entry)
        return ok

    @contextlib.contextmanager
    def probe(self, name, statement):
        """Yield a Probe and record its verdict when the block ends.

        A block that raises records nothing: the exception propagates."""
        pr = Probe()
        yield pr
        self.record(name, statement, pr.ok, pr.witness)

    def info(self, name, statement, payload):
        self.checks.append(
            {
                "name": name,
                "statement": statement,
                "status": "info",
                "witness": _plain(payload),
            }
        )

    @property
    def failed(self):
        return [c for c in self.checks if c["status"] == "fail"]


def build_report(command, config, suite):
    checks = sorted(suite.checks, key=lambda c: c["name"])
    passed = sum(1 for c in checks if c["status"] == "pass")
    failed = sum(1 for c in checks if c["status"] == "fail")
    info = sum(1 for c in checks if c["status"] == "info")
    return {
        "tool": "contactk",
        "version": __version__,
        "command": command,
        "config": _plain(config),
        "checks": checks,
        "summary": {
            "total": len(checks),
            "passed": passed,
            "failed": failed,
            "info": info,
        },
    }


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_table(report):
    lines = []
    lines.append(
        f"contactk {report['version']} :: {report['command']}"
    )
    for key, val in sorted(report["config"].items()):
        lines.append(f"  {key} = {val}")
    lines.append("")
    width = max((len(c["name"]) for c in report["checks"]), default=4)
    for c in report["checks"]:
        mark = {"pass": "PASS", "fail": "FAIL", "info": "INFO"}[c["status"]]
        lines.append(f"{mark}  {c['name']:<{width}}  {c['statement']}")
        if c["status"] == "fail" and c["witness"]:
            lines.append(f"      witness: {json.dumps(c['witness'], sort_keys=True)}")
        if c["status"] == "info" and c["witness"]:
            payload = json.dumps(c["witness"], sort_keys=True)
            if len(payload) > 200:
                payload = payload[:200] + "..."
            lines.append(f"      {payload}")
    s = report["summary"]
    lines.append("")
    lines.append(
        f"{s['passed']}/{s['passed'] + s['failed']} checks passed"
        + (f", {s['info']} informational" if s["info"] else "")
    )
    return "\n".join(lines) + "\n"
