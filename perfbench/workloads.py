"""The benchmark's workloads: seeded lists of CLI jobs and their gate.

Each job is one `python -m contactk.cli ... --format json` invocation, as
a user runs it.  Why each workload exists:

scan-heis2      the headline reducibility scan: one datum, 48 modules over
                c = -3..8; exercises the per-c rebuilds that a symbolic c
                removes, the duplicate singular_space calls and jacobi_check.
points-heis3    single points at N=3, the only N=3 sizes: the dense carrier
                action (kron/mat_vec) dominates; one c per job, so symbolic
                c has nothing to gain here and must not slow it.
points-rebased  single points on random re-based datums, one cold process
                each: normal forms, Hopf arithmetic and Fraction growth
                dominate, the carrier is under 5%; shows work moved into
                per-datum set-up or a new coefficient representation.
suites-heis2    verify-core and rumin on heisenberg:2 plus annihilation on
                sl2: exterior, sp_rep, pseudoforms and annihilation, and no
                singular_space at all, so every scan optimization bypasses it.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

from datums import base_brackets, write_datums

NAMES = ("scan-heis2", "points-heis3", "points-rebased", "suites-heis2")

EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

HEIS3_POINTS = (("trivial", 0), ("pi:1", 1), ("pi:1", 7), ("pi:2", 2),
                ("pi:3", 3), ("sym2", 1))
# rebased datums: (base algebra, points); the N=1 points are cheap and
# cover both conventions of the rule, the N=2 points carry the work
REBASED = (
    ("sl2", (("trivial", 0), ("pi:1", 1), ("pi:1", 3))),
    ("heisenberg:1", (("trivial", 0), ("pi:1", 1), ("pi:1", 3))),
) + (("heisenberg:2", (("trivial", 0), ("pi:1", 1))),) * 5


@dataclass(frozen=True)
class Job:
    args: tuple  # CLI arguments after `python -m contactk.cli`
    algebra: str  # the --algebra value, for the set-up probe
    expect: tuple  # ("classify", algebra) or ("singular", N, "u c") or ()

    def label(self):
        return " ".join(self.args)


def _singular(algebra, n, u, c):
    return Job(("singular", "--algebra", algebra, "--u", u, "--c", str(c)),
               algebra, ("singular", str(n), f"{u} {c}"))


def make_jobs(name, seed, workdir):
    """The workload's jobs for `seed`; datum files go into `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    if name == "scan-heis2":
        return [Job(("classify", "--algebra", "heisenberg:2"), "heisenberg:2",
                    ("classify", "heisenberg:2"))]
    if name == "points-heis3":
        jobs = [_singular("heisenberg:3", 3, u, c) for u, c in HEIS3_POINTS]
    elif name == "points-rebased":
        paths = write_datums([base for base, _ in REBASED], seed, workdir)
        jobs = []
        for path, (base, points) in zip(paths, REBASED):
            n = (base_brackets(base)[0] - 1) // 2
            jobs += [_singular(str(path), n, u, c) for u, c in points]
    elif name == "suites-heis2":
        seeds = [str(rng.randrange(1 << 30)) for _ in range(3)]
        jobs = [
            Job(("verify-core", "--algebra", "heisenberg:2", "--seed",
                 seeds[0]), "heisenberg:2", ()),
            Job(("rumin", "--algebra", "heisenberg:2", "--seed", seeds[1]),
                "heisenberg:2", ()),
            # truncation 5 keeps a round short enough to repeat; never
            # below 4: at 3 the gl_quotient check fails (a known defect)
            Job(("annihilation", "--algebra", "sl2", "--truncation", "5",
                 "--seed", seeds[2]), "sl2", ()),
        ]
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")
    rng.shuffle(jobs)
    return jobs


def check_report(job, returncode, report_path):
    """None when the job's result is right, else the reason it is not."""
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    if failing:
        return f"failed checks: {failing[:3]}"
    info = {c["name"]: c["witness"] for c in report["checks"]
            if c["status"] == "info"}
    if not job.expect:
        return None
    if job.expect[0] == "classify":
        want = EXPECTED["classify"][job.expect[1]]
        got = [[r["u"], r["c"], r["verdict"], r["singular_dim"]]
               for r in info.get("classify.table", [])]
        if got != want:
            bad = [g for g, w in zip(got, want) if g != w][:2]
            return f"classification table differs from the rule: {bad}"
        return None
    _, n, point = job.expect
    want = EXPECTED["singular_dim"][n][point]
    got = len(info.get("singular.basis", []))
    if got != want:
        return f"singular basis has {got} vectors, the rule gives {want}"
    return None
