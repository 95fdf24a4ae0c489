"""Per-layer spans for one contactk CLI job, recorded from outside the program.

Run as a script, this file is a stand-in for `python -m contactk.cli`:

    python perfbench/tracing.py OUTBASE <cli arguments>

It imports the program, wraps the functions named in SPANS (on their
classes, and in every contactk namespace that binds them by name, since
e.g. pseudoalgebra imports get_env and LinearSystem directly), runs the
CLI, and writes the spans (name, start, end, parent) it kept in memory to
OUTBASE.spans plus its counters to OUTBASE.json.  The benchmark reads them
back with `summarize` and turns them into per-layer metrics with
`layer_metrics`.  A span's self time is its duration minus the durations
of its child spans.
"""

import array
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, contactk module, attribute path in that module)
SPANS = (
    ("cli.run_classify", "cli", "run_classify"),
    ("cli.run_singular", "cli", "run_singular"),
    ("cli.suite_contact", "cli", "suite_contact"),
    ("cli.suite_exterior", "cli", "suite_exterior"),
    ("cli.suite_enveloping", "cli", "suite_enveloping"),
    ("cli.suite_sp", "cli", "suite_sp"),
    ("cli.suite_rumin", "cli", "suite_rumin"),
    ("cli.suite_annihilation", "cli", "suite_annihilation"),
    ("report.render_json", "report", "render_json"),
    ("contact_lie.resolve_algebra", "contact_lie", "resolve_algebra"),
    ("pseudoalgebra.singular_space", "pseudoalgebra", "singular_space"),
    ("pseudoalgebra.filtration_dims", "pseudoalgebra", "filtration_dims"),
    ("pseudoalgebra.jacobi_check", "pseudoalgebra", "jacobi_check"),
    ("pseudoalgebra.coefficient_lemma_check", "pseudoalgebra",
     "coefficient_lemma_check"),
    ("pseudoalgebra.degree2_structure_check", "pseudoalgebra",
     "degree2_structure_check"),
    ("pseudoalgebra.e_star_raw", "pseudoalgebra", "e_star_raw"),
    ("pseudoalgebra.to_left_normal", "pseudoalgebra", "to_left_normal"),
    ("pseudoalgebra.to_right_normal", "pseudoalgebra", "to_right_normal"),
    ("pseudoalgebra.e_star_generator", "pseudoalgebra",
     "TensorModuleSpec._e_star_generator"),
    ("pseudoalgebra.rho_d", "pseudoalgebra", "TensorModuleSpec.rho_d"),
    ("pseudoalgebra.rho_sp", "pseudoalgebra", "TensorModuleSpec.rho_sp"),
    ("pseudoalgebra.rho_f", "pseudoalgebra", "TensorModuleSpec.rho_f"),
    ("enveloping.gen_mul", "enveloping", "Enveloping.gen_mul"),
    ("enveloping.mono_mul", "enveloping", "Enveloping.mono_mul"),
    ("enveloping.mul", "enveloping", "Enveloping.mul"),
    ("enveloping.coproduct", "enveloping", "Enveloping.coproduct"),
    ("enveloping.antipode_basis", "enveloping", "Enveloping.antipode_basis"),
    ("linalg.Echelon.add", "linalg", "Echelon.add"),
    ("linalg.LinearSystem.kernel", "linalg", "LinearSystem.kernel"),
    ("linalg.kron", "linalg", "kron"),
    ("linalg.mat_vec", "linalg", "mat_vec"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("sp_rep.build_sp", "sp_rep", "build_sp"),
    ("sp_rep.ad_sp", "sp_rep", "ad_sp"),
    ("sp_rep.sp_coordinates", "sp_rep", "sp_coordinates"),
    ("sp_rep.casimir_apply", "sp_rep", "casimir_apply"),
    ("pseudoforms.pseudo_d", "pseudoforms", "pseudo_d"),
    ("pseudoforms.apply_hmat", "pseudoforms", "apply_hmat"),
    ("pseudoforms.sample_exactness", "pseudoforms", "sample_exactness"),
    ("exterior.wedge", "exterior", "wedge"),
    ("annihilation.w_bracket", "annihilation", "w_bracket"),
    ("annihilation.fourier_images_check", "annihilation",
     "fourier_images_check"),
    ("annihilation.csp_quotient_check", "annihilation", "csp_quotient_check"),
)

# spans whose first argument is counted once per distinct object
DISTINCT = ("pseudoalgebra.singular_space", "sp_rep.build_sp")
MEMOS = {"enveloping.gen_mul": "_gen_mul", "enveloping.mono_mul": "_mono_mul",
         "enveloping.antipode_basis": "_antipode"}
# the carrier action: these spans and the matrix-vector products the
# generator applies their results with, less the sp coordinate solves
CARRIER = ("pseudoalgebra.rho_d", "pseudoalgebra.rho_sp", "pseudoalgebra.rho_f")

# (metric, unit, kind, key): kind is calls, self_s, busy_s, useful_ratio
# or hit_ratio of the span named by the metric, or a counter whose key
# (if any) is the last field; see layer_metrics
LAYER_METRICS = (
    ("pseudoalgebra.e_star_raw.calls", "count", "calls", None),
    ("pseudoalgebra.e_star_raw.self_s", "s", "self_s", None),
    ("pseudoalgebra.to_left_normal.calls", "count", "calls", None),
    ("pseudoalgebra.to_left_normal.self_s", "s", "self_s", None),
    ("pseudoalgebra.to_right_normal.calls", "count", "calls", None),
    ("pseudoalgebra.to_right_normal.self_s", "s", "self_s", None),
    ("pseudoalgebra.carrier.self_s", "s", "carrier", None),
    ("pseudoalgebra.singular_space.calls", "count", "calls", None),
    ("pseudoalgebra.singular_space.busy_s", "s", "busy_s", None),
    ("pseudoalgebra.singular_space.useful_ratio", "ratio", "useful_ratio",
     None),
    ("pseudoalgebra.jacobi_check.busy_s", "s", "busy_s", None),
    ("pseudoalgebra.coefficient_lemma_check.busy_s", "s", "busy_s", None),
    ("pseudoalgebra.degree2_structure_check.busy_s", "s", "busy_s", None),
    ("pseudoalgebra.filtration_dims.busy_s", "s", "busy_s", None),
    ("enveloping.gen_mul.calls", "count", "calls", None),
    ("enveloping.gen_mul.hit_ratio", "ratio", "hit_ratio", None),
    ("enveloping.mono_mul.calls", "count", "calls", None),
    ("enveloping.mono_mul.self_s", "s", "self_s", None),
    ("enveloping.mono_mul.hit_ratio", "ratio", "hit_ratio", None),
    ("enveloping.mul.calls", "count", "calls", None),
    ("enveloping.mul.self_s", "s", "self_s", None),
    ("enveloping.coproduct.calls", "count", "calls", None),
    ("enveloping.coproduct.self_s", "s", "self_s", None),
    ("enveloping.antipode_basis.calls", "count", "calls", None),
    ("enveloping.antipode_basis.hit_ratio", "ratio", "hit_ratio", None),
    ("enveloping.memo_entries", "count", "memo_entries", None),
    ("linalg.Echelon.add.calls", "count", "calls", None),
    ("linalg.Echelon.add.self_s", "s", "self_s", None),
    ("linalg.LinearSystem.columns", "count", "linsys", "columns"),
    ("linalg.LinearSystem.rank", "count", "linsys", "rank"),
    ("linalg.LinearSystem.kernel_dim", "count", "linsys", "kernel_dim"),
    ("linalg.LinearSystem.max_coeff_bits", "bits", "linsys", "max_coeff_bits"),
    ("linalg.kron.calls", "count", "calls", None),
    ("linalg.kron.self_s", "s", "self_s", None),
    ("linalg.mat_vec.calls", "count", "calls", None),
    ("linalg.mat_vec.self_s", "s", "self_s", None),
    ("linalg.mat_mul.calls", "count", "calls", None),
    ("linalg.mat_mul.self_s", "s", "self_s", None),
    ("sp_rep.build_sp.calls", "count", "calls", None),
    ("sp_rep.build_sp.busy_s", "s", "busy_s", None),
    ("sp_rep.build_sp.useful_ratio", "ratio", "useful_ratio", None),
    ("sp_rep.ad_sp.calls", "count", "calls", None),
    ("sp_rep.sp_coordinates.busy_s", "s", "busy_s", None),
    ("sp_rep.casimir_apply.busy_s", "s", "busy_s", None),
    ("contact_lie.resolve_algebra.calls", "count", "calls", None),
    ("contact_lie.resolve_algebra.busy_s", "s", "busy_s", None),
    ("pseudoforms.pseudo_d.calls", "count", "calls", None),
    ("pseudoforms.pseudo_d.self_s", "s", "self_s", None),
    ("pseudoforms.apply_hmat.self_s", "s", "self_s", None),
    ("pseudoforms.sample_exactness.busy_s", "s", "busy_s", None),
    ("exterior.wedge.calls", "count", "calls", None),
    ("exterior.wedge.self_s", "s", "self_s", None),
    ("annihilation.w_bracket.calls", "count", "calls", None),
    ("annihilation.w_bracket.self_s", "s", "self_s", None),
    ("annihilation.fourier_images_check.busy_s", "s", "busy_s", None),
    ("annihilation.csp_quotient_check.busy_s", "s", "busy_s", None),
    ("cli.run_classify.busy_s", "s", "busy_s", None),
    ("cli.run_singular.busy_s", "s", "busy_s", None),
    ("cli.suite_contact.busy_s", "s", "busy_s", None),
    ("cli.suite_exterior.busy_s", "s", "busy_s", None),
    ("cli.suite_enveloping.busy_s", "s", "busy_s", None),
    ("cli.suite_sp.busy_s", "s", "busy_s", None),
    ("cli.suite_rumin.busy_s", "s", "busy_s", None),
    ("cli.suite_annihilation.busy_s", "s", "busy_s", None),
    ("report.render_json.busy_s", "s", "busy_s", None),
    ("trace.wall_s", "s", "trace", "wall_s"),
    ("trace.overhead_s", "s", "trace", "overhead_s"),
)


# ---------------------------------------------------------------------------
# recording, inside the job process


class Recorder:
    """Spans kept in flat arrays; `stack` holds the open spans' indices."""

    def __init__(self):
        self.names = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.distinct = {span: {} for span in DISTINCT}
        self.linsys = {"columns": 0, "rank": 0, "kernel_dim": 0,
                       "max_coeff_bits": 0}
        self.envs = []

    def wrap(self, span, fn, observe=None):
        sid = len(self.names)
        self.names.append(span)
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, out)
            return out

        return traced

    def observer(self, span):
        if span in self.distinct:
            seen = self.distinct[span]
            # keep the object so that its id is not reused
            return lambda args, out: seen.setdefault(id(args[0]), args[0])
        if span == "linalg.LinearSystem.kernel":
            return self._kernel_stats
        return None

    def _kernel_stats(self, args, kernel):
        system = args[0]
        stats = self.linsys
        stats["columns"] += len(system.labels)
        stats["kernel_dim"] += len(kernel)
        stats["rank"] += len(system.labels) - len(kernel)
        bits = max((max(abs(x.numerator).bit_length(), x.denominator.bit_length())
                    for row in system.ech.rows.values() for x in row.values()),
                   default=0)
        stats["max_coeff_bits"] = max(stats["max_coeff_bits"], bits)

    def install(self):
        package = importlib.import_module("contactk")
        modules = {m: importlib.import_module(f"contactk.{m}")
                   for m in dict.fromkeys(mod for _, mod, _ in SPANS)}
        namespaces = [package] + list(modules.values())
        for span, mod, attr in SPANS:
            owner = modules[mod]
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, last)
            wrapped = self.wrap(span, fn, self.observer(span))
            if isinstance(owner, type):
                setattr(owner, last, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
        env_class = modules["enveloping"].Enveloping
        init = env_class.__init__

        def register(env, *args, **kwargs):
            init(env, *args, **kwargs)
            self.envs.append(env)

        env_class.__init__ = register

    def dump(self, outbase):
        with open(f"{outbase}.spans", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)
        memo = {span: sum(len(getattr(env, attr)) for env in self.envs)
                for span, attr in MEMOS.items()}
        meta = {
            "names": self.names,
            "count": len(self.start),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "linsys": self.linsys,
            "memo": memo,
        }
        with open(f"{outbase}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def main(argv):
    outbase, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from contactk import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.dump(outbase)


# ---------------------------------------------------------------------------
# analysis, in the benchmark process


def _new_totals():
    return {
        "calls": defaultdict(int),
        "busy_s": defaultdict(float),
        "self_s": defaultdict(float),
        "carrier_s": 0.0,
        "distinct": defaultdict(int),
        "memo": defaultdict(int),
        "linsys": {"columns": 0, "rank": 0, "kernel_dim": 0,
                   "max_coeff_bits": 0},
    }


def summarize(outbases):
    """Sum the spans and counters of several traced jobs."""
    totals = _new_totals()
    for outbase in outbases:
        _add_job(totals, outbase)
    return totals


def _add_job(totals, outbase):
    with open(f"{outbase}.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["count"]
    name, parent = array.array("i"), array.array("i")
    start, end = array.array("d"), array.array("d")
    with open(f"{outbase}.spans", "rb") as fh:
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
    names = meta["names"]
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
    calls, busy, own = totals["calls"], totals["busy_s"], totals["self_s"]
    carrier = {names.index(s) for s in CARRIER}
    generator = names.index("pseudoalgebra.e_star_generator")
    mat_vec = names.index("linalg.mat_vec")
    coords = names.index("sp_rep.sp_coordinates")
    for i in range(n):
        sid = name[i]
        span = names[sid]
        calls[span] += 1
        busy[span] += dur[i]
        own[span] += dur[i] - child[i]
        p = parent[i]
        if sid in carrier or (sid == mat_vec and p >= 0
                              and name[p] == generator):
            totals["carrier_s"] += dur[i]
        elif sid == coords and p >= 0 and name[p] in carrier:
            totals["carrier_s"] -= dur[i]
    for key, value in meta["distinct"].items():
        totals["distinct"][key] += value
    for key, value in meta["memo"].items():
        totals["memo"][key] += value
    stats = totals["linsys"]
    for key, value in meta["linsys"].items():
        stats[key] = (max(stats[key], value) if key == "max_coeff_bits"
                      else stats[key] + value)


def layer_metrics(totals, traced_wall_s, plain_wall_s):
    """Every per-layer metric, as {name: (value, unit)}."""
    out = {}
    for metric, unit, kind, arg in LAYER_METRICS:
        span = metric.rsplit(".", 1)[0]
        calls = totals["calls"].get(span, 0)
        if kind in ("calls", "self_s", "busy_s"):
            value = totals[kind].get(span, 0)
        elif kind == "useful_ratio":
            value = totals["distinct"][span] / calls if calls else 0.0
        elif kind == "hit_ratio":
            value = (calls - totals["memo"][span]) / calls if calls else 0.0
        elif kind == "memo_entries":
            value = sum(totals["memo"].values())
        elif kind == "carrier":
            value = totals["carrier_s"]
        elif kind == "linsys":
            value = totals["linsys"][arg]
        else:
            value = {"wall_s": traced_wall_s,
                     "overhead_s": traced_wall_s - plain_wall_s}[arg]
        out[metric] = (value, unit)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
