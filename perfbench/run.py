"""contactk benchmark: time to an exact verdict on four job mixes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, one table

Run from anywhere inside a checkout; it uses the checkout's `src/`.  The
workloads and why each was chosen are in workloads.py.

Closed loop, one client: the jobs run one after another, each in a fresh
`python -m contactk.cli ... --format json` process, as a CLI user runs
them.  Fresh processes are also required for a fair measure:
`enveloping.get_env`, `pseudoalgebra._sp_cache`, `sp_rep.sp_coordinates`
and `exterior._solver_cache` are keyed by id(data) and keep every datum
alive, so jobs sharing a process would grow memory from job to job and
make peak_rss_mb and wall_s drift.

Other tenants of the machine slow it down in phases of seconds, by up to
2x.  So the batch is repeated in rounds for as long as another round is
expected to end within `--seconds` (at least one round), and each job
counts with its fastest round.  End-to-end
metrics (`--trace 0`):

  wall_s       the batch's time to verdict: sum over jobs of their times
  job_s.p50    median per-job time            job_s.max  largest one
  setup_s      sum over jobs of the set-up a fresh interpreter needs to
               import contactk.cli and resolve the job's --algebra, each
               the median of SETUP_REPEATS probes in their own processes
  peak_rss_mb  largest peak resident memory of any job process
  pass_ratio   jobs whose output passed the gate / jobs attempted

`--trace 1` runs one plain round and one traced round (see tracing.py)
and prints the per-layer metrics instead; trace.overhead_s is the traced
round's time minus the plain one's.  The last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_REPEATS = 3
SETUP_CODE = ("import sys, contactk.cli\n"
              "from contactk import contact_lie\n"
              "contact_lie.resolve_algebra(sys.argv[1])\n")
END_TO_END = (("wall_s", "s"), ("job_s.p50", "s"), ("job_s.max", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"))


class Runner:
    """Starts the job processes of one benchmark run, within its deadline."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.jobs = 0

    def process(self, cmd, log):
        """Run cmd to completion, its output into the file `log`:
        (seconds, exit status, peak RSS in KiB)."""
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                # wait4, not Popen.wait: it returns the child's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        # tell Popen the child is reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def job(self, job, traced=False):
        """Run one job: (seconds, peak RSS KiB, failure or None, outbase)."""
        self.jobs += 1
        out = self.workdir / f"job{self.jobs}"
        args = list(job.args) + ["--format", "json", "--out", f"{out}.report"]
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(out)] + args
        else:
            cmd = [sys.executable, "-m", "contactk.cli"] + args
        seconds, status, rss = self.process(cmd, f"{out}.log")
        if time.monotonic() >= self.deadline:
            reason = f"killed at the {DEADLINE_S:.0f} s deadline"
        else:
            reason = workloads.check_report(job, status, f"{out}.report")
        if reason is not None:
            reason += _last_line(f"{out}.log")
        return seconds, rss, reason, out

    def setup_s(self, jobs):
        """Sum over jobs of the median set-up probe for their --algebra."""
        algebras = sorted({job.algebra for job in jobs})
        # untimed: fills the bytecode caches, as any earlier run would
        self.probe(algebras[0])
        samples = {alg: [] for alg in algebras}
        for _ in range(SETUP_REPEATS):
            for alg in algebras:
                samples[alg].append(self.probe(alg))
        return sum(statistics.median(samples[job.algebra]) for job in jobs)

    def probe(self, algebra):
        log = self.workdir / "probe.log"
        seconds, status, _ = self.process(
            [sys.executable, "-c", SETUP_CODE, algebra], log)
        if status != 0:
            raise RuntimeError(f"set-up probe for {algebra} exited {status}"
                               + _last_line(log))
        return seconds


def _last_line(log):
    lines = Path(log).read_text(encoding="utf-8", errors="replace").splitlines()
    return f" ({lines[-1].strip()})" if lines else ""


class Tally:
    """Failures over every job attempted in a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, job, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{job.label()}: {reason}")


def run_round(runner, jobs, tally, traced=False):
    """[(seconds, peak RSS KiB, outbase)] for each job, in order."""
    results = []
    for job in jobs:
        seconds, rss, reason, out = runner.job(job, traced)
        tally.add(job, reason)
        results.append((seconds, rss, out))
    return results


def measure(runner, jobs, seconds, tally):
    setup = runner.setup_s(jobs)
    rounds = []
    t0 = time.monotonic()
    # another round only if it should end within the run's seconds
    while not rounds or (time.monotonic() - t0 + rounds[-1][0] <= seconds
                         and time.monotonic() + rounds[-1][0] < runner.deadline):
        results = run_round(runner, jobs, tally)
        rounds.append((sum(r[0] for r in results), results))
        if tally.failures:
            break
    best = [min(r[1][j][0] for r in rounds) for j in range(len(jobs))]
    rss_kib = max(r[1] for _, results in rounds for r in results)
    values = {
        "wall_s": sum(best),
        "job_s.p50": statistics.median(best),
        "job_s.max": max(best),
        "setup_s": setup,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "pass_ratio": (tally.attempted - len(tally.failures)) / tally.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, best, f"{len(rounds)} rounds, each job's best shown"


def measure_traced(runner, jobs, tally):
    plain = run_round(runner, jobs, tally)
    traced = run_round(runner, jobs, tally, traced=True)
    totals = tracing.summarize([r[2] for r in traced])
    metrics = tracing.layer_metrics(totals, sum(r[0] for r in traced),
                                    sum(r[0] for r in plain))
    return metrics, [r[0] for r in traced], "1 plain and 1 traced round"


def run_workload(name, seed, seconds, trace):
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.make_jobs(name, seed, workdir)
        runner = Runner(workdir, time.monotonic() + DEADLINE_S)
        tally = Tally()
        if trace:
            metrics, times, how = measure_traced(runner, jobs, tally)
        else:
            metrics, times, how = measure(runner, jobs, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    print(f"{name} seed={seed}: {len(jobs)} jobs, {how}; "
          f"attempted={tally.attempted} failed={len(tally.failures)} "
          f"fail_ratio={len(tally.failures) / tally.attempted:g}")
    for job, job_seconds in zip(jobs, times):
        print(f"  {job_seconds:9.3f} s  {job.label()}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:<48} {value:>14.6g} {unit}")
    return tally, metrics


def result_line(tally_metrics):
    attempted = sum(t.attempted for t, _ in tally_metrics.values())
    failed = sum(len(t.failures) for t, _ in tally_metrics.values())
    if len(tally_metrics) == 1:
        (_, metrics), = tally_metrics.values()
        named = metrics
    else:
        named = {f"{wl}.{m}": v for wl, (_, metrics) in tally_metrics.items()
                 for m, v in metrics.items()}
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in named.items()},
    })


def _terminate(signum, frame):
    sys.exit(128 + signum)  # unwinds through Runner.process, which kills the job


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "contactk" / "cli.py").is_file():
        print(f"error: no contactk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the datum generator loads datums
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace)
               for name in names}
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
