"""Acceptance gate: one test per criterion, each printing a verdict line.

Every check is exact (zero tolerance); the stated wall-clock budgets are
asserted as well.  Run with `pytest tests/test_acceptance.py -v -s` to see
the per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import twisted_contact_complex

from contactk import annihilation as an
from contactk import cli
from contactk import contact_lie as cl
from contactk import enveloping as ev
from contactk import exterior as ex
from contactk import linalg
from contactk import pseudoalgebra as pa
from contactk import pseudoforms as pfm
from contactk import report as report_mod
from contactk import sp_rep as sp
from contactk.enveloping import get_env

ONE = Fraction(1)
ZERO = Fraction(0)


def _verdict(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {number} {status}: {label} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    assert ok, f"criterion {number} failed"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


@pytest.fixture(scope="module")
def scan_results():
    """The classification scan shared by criteria 6 and 7."""
    out = {}
    t0 = time.time()
    for name, c_max in (("sl2", 6), ("heisenberg:1", 6)):
        data = cl.resolve_algebra(name)
        suite = report_mod.Suite()
        table = cli.run_classify(
            suite, data, -3, c_max, pfm.trivial_twist(data),
        )
        out[name] = (suite, table)
    out["n1_elapsed"] = time.time() - t0
    t1 = time.time()
    data = cl.heisenberg(2)
    suite = report_mod.Suite()
    table = cli.run_classify(suite, data, -3, 8, pfm.trivial_twist(data))
    out["heisenberg:2"] = (suite, table)
    out["n2_elapsed"] = time.time() - t1
    return out


def test_criterion_1_contact_datum():
    t0 = time.time()
    ok = True
    for name in ("sl2", "heisenberg:1", "heisenberg:2"):
        start = time.time()
        data = cl.resolve_algebra(name)
        dim = data.dim
        for i in range(1, dim):
            for k in range(1, dim):
                want = ONE if i == k else ZERO
                ok &= sum(
                    data.rmat[i][j] * data.omega[j][k] for j in range(1, dim)
                ) == want
                ok &= data.omega_pair(
                    data.dual_vector(i), data.basis_vector(k)) == want
                ok &= data.omega_pair(
                    data.dual_vector(i), data.dual_vector(k)
                ) == -data.rmat[i][k] == data.rmat[k][i]
        ok &= cl.check_remark_identity(data)
        ok &= time.time() - start < 1.0
    _verdict(1, "contact data build and symplectic identities",
             ok, time.time() - t0, 3.0)


def test_criterion_2_exterior():
    t0 = time.time()
    ok = True
    for name in ("sl2", "heisenberg:1", "heisenberg:2"):
        data = cl.resolve_algebra(name)
        dim = data.dim
        for n in range(dim + 1):
            for key in ex.monomials(dim, n):
                f = ex.form(n, {key: 1})
                ok &= ex.d0(data, ex.d0(data, f)).is_zero()
        for k in range(dim):
            A = data.ad_matrix(k)
            vk = data.basis_vector(k)
            for n in range(dim + 1):
                for key in ex.monomials(dim, n):
                    f = ex.form(n, {key: 1})
                    lhs = ex.gl_act(A, f)
                    rhs = ex.d0(data, ex.contract(vk, f)) + \
                        ex.contract(vk, ex.d0(data, f))
                    ok &= lhs.as_dict() == rhs.as_dict()
        gens = sp.build_sp(data)
        th, om = ex.theta_form(data), ex.omega_form(data)
        ok &= ex.gl_act(gens.i_prime, th).as_dict() == \
            (Fraction(-2) * th).as_dict()
        ok &= ex.gl_act(gens.i_prime, om).as_dict() == \
            (Fraction(-2) * om).as_dict()
        for i in range(1, dim):
            for j in range(dim):
                full = [[ZERO] * dim for _ in range(dim)]
                for k in range(1, dim):
                    if data.rmat[i][k]:
                        full[k][j] += data.rmat[i][k]
                got = ex.gl_act(tuple(map(tuple, full)), om)
                want = ex.wedge(ex.one_form(i), ex.one_form(j))
                ok &= got.as_dict() == want.as_dict()
    _verdict(2, "constant differential, homotopy formula, grading action",
             ok, time.time() - t0, 10.0)


def test_criterion_3_hopf():
    t0 = time.time()
    ok = True
    rng = random.Random(3)
    for name in ("sl2", "heisenberg:1"):
        data = cl.resolve_algebra(name)
        env = get_env(data)
        for I in ev.multi_indices(3, 3):
            want = ev.unit(3) if sum(I) == 0 else {}
            acc, acc2 = {}, {}
            cou_l, cou_r = {}, {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(acc, env.mul(env.antipode_basis(J), {K: ONE}), c)
                linalg.vec_iadd(acc2, env.mul({J: ONE}, env.antipode_basis(K)), c)
                linalg.vec_iadd(cou_l, {K: ONE}, c * env.counit({J: ONE}))
                linalg.vec_iadd(cou_r, {J: ONE}, c * env.counit({K: ONE}))
            ok &= acc == want and acc2 == want
            ok &= cou_l == {I: ONE} and cou_r == {I: ONE}
            trip = {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                for (J1, J2), c2 in env.coproduct({J: ONE}).items():
                    for A, ca in env.mul(
                            env.antipode_basis(J1), {J2: ONE}).items():
                        key = (A, K)
                        w = trip.get(key, ZERO) + c * c2 * ca
                        if w:
                            trip[key] = w
                        else:
                            trip.pop(key, None)
            ok &= trip == {((0, 0, 0), I): ONE}
        for _ in range(10):
            I = rng.choice(ev.multi_indices(3, 5))
            acc = {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(acc, env.mul(env.antipode_basis(J), {K: ONE}), c)
            ok &= acc == (ev.unit(3) if sum(I) == 0 else {})
        idx = ev.multi_indices(3, 2)
        for I in idx:
            for J in idx:
                left = env.mono_mul(I, J)
                for K in idx:
                    ok &= env.mul(left, {K: ONE}) == env.mul(
                        {I: ONE}, env.mono_mul(J, K)
                    )
        for _ in range(10):
            u = {rng.choice(idx): Fraction(rng.randint(-3, 3))}
            v = {rng.choice(idx): Fraction(rng.randint(-3, 3))}
            lhs = env.coproduct(env.mul(u, v))
            rhs = {}
            for (A1, B1), c1 in env.coproduct(u).items():
                for (A2, B2), c2 in env.coproduct(v).items():
                    for A, ca in env.mono_mul(A1, A2).items():
                        for B, cb in env.mono_mul(B1, B2).items():
                            key = (A, B)
                            w = rhs.get(key, ZERO) + c1 * c2 * ca * cb
                            if w:
                                rhs[key] = w
                            else:
                                rhs.pop(key, None)
            ok &= lhs == rhs
        gens = [ev.generator(3, i) for i in range(3)]
        for t in itertools.product(range(3), repeat=3):
            ok &= ev.symmetrization_identity_check(
                env, gens[t[0]], gens[t[1]], gens[t[2]]
            )
        for t in itertools.product(range(3), repeat=4):
            ok &= ev.symmetrization_identity_check(
                env, gens[t[0]], gens[t[1]], gens[t[2]], gens[t[3]]
            )
    _verdict(3, "Hopf axioms, associativity, symmetrization identities",
             ok, time.time() - t0, 60.0)


def test_criterion_4_sp():
    t0 = time.time()
    ok = True
    want_values = {1: ["0", "3/2"], 2: ["0", "5/2", "4"]}
    for name in ("sl2", "heisenberg:1", "heisenberg:2"):
        data = cl.resolve_algebra(name)
        dim = data.dim
        gens = sp.build_sp(data)
        import contactk.linalg as la

        for (i, j) in itertools.product(range(1, dim), repeat=2):
            for (k, l) in itertools.product(range(1, dim), repeat=2):
                lhs = la.commutator(gens.f(i, j), gens.f(k, l))
                rhs = la.zeros(dim - 1)
                for rr, ff in (
                    (data.rmat[i][k], gens.f(j, l)),
                    (data.rmat[i][l], gens.f(j, k)),
                    (data.rmat[j][k], gens.f(i, l)),
                    (data.rmat[j][l], gens.f(i, k)),
                ):
                    rhs = la.mat_add(rhs, la.mat_scale(ff, Fraction(rr, 2)))
                ok &= lhs == rhs
        for i in range(1, dim):
            h_, e_, f_ = gens.sl2_triple(i)
            ok &= la.commutator(h_, e_) == la.mat_scale(e_, 2)
            ok &= la.commutator(h_, f_) == la.mat_scale(f_, -2)
            ok &= la.commutator(e_, f_) == h_
        got_values = []
        for n in range(data.N + 1):
            rep = sp.fundamental_rep(data, gens, n)
            ok &= rep.dim == sp.fundamental_dim(data.N, n)
            val = sp.scalar_matrix_value(sp.casimir_apply(data, gens, rep))
            ok &= val == Fraction(n * (2 * data.N + 2 - n), 2)
            got_values.append(str(val))
        ok &= got_values == want_values[data.N]
    _verdict(4, "symplectic brackets, triples, Casimir eigenvalues 3/2, "
             "5/2, 4", ok, time.time() - t0, 30.0)


def _rumin_criterion(name, budget, number_note):
    t0 = time.time()
    data = cl.resolve_algebra(name)
    env = get_env(data)
    dim = data.dim
    ok = True
    one = pfm.pf_from_form(dim, ex.scalar_form(1))
    ok &= pfm.pseudo_d(env, one) == (-ONE) * pfm.eps_pseudoform(dim)
    for n in range(dim + 1):
        for I in ev.multi_indices(dim, 3):
            for S in ex.monomials(dim, n):
                a = pfm.pform(n, {(I, S): 1})
                ok &= pfm.pseudo_d(env, pfm.pseudo_d(env, a)).is_zero()
    ok &= pfm.relations_check(env, 3)
    rng = random.Random(2024)
    nn = data.N
    idx = ev.multi_indices(dim, 2)
    for _ in range(15):
        a = pfm.pform(
            nn,
            {(rng.choice(idx), rng.choice(ex.monomials(dim, nn))):
             Fraction(rng.randint(-3, 3))},
        )
        r1 = pfm.rumin_map(env, a)
        ok &= r1 == pfm.rumin_map(env, a, reverse=True)
        ok &= pfm.in_K_pseudo(env, r1)
        mu = pfm.pform(
            nn - 1,
            {(rng.choice(idx), rng.choice(ex.monomials(dim, nn - 1))): ONE},
        )
        ok &= pfm.rumin_map(env, pfm.theta_mul_p(env, mu)).is_zero()
    members = pfm.contact_complex_members(data)
    hmats = pfm.contact_complex_hmats(env, members)
    for i in range(len(hmats) - 1):
        ok &= pfm.hmat_is_zero(pfm.compose_hmats(env, hmats[i], hmats[i + 1]))
    for term in range(1, len(members) - 1):
        rep = pfm.sample_exactness(env, members, hmats, term, 4)
        ok &= not rep["failures"]
    _verdict(5, f"pseudo de Rham and completion map ({number_note})",
             ok, time.time() - t0, budget)


def test_criterion_5_rumin_n1():
    _rumin_criterion("heisenberg:1", 300.0, "N=1")


def test_criterion_5_rumin_n2():
    _rumin_criterion("heisenberg:2", 1200.0, "N=2")


def test_criterion_6_pseudoalgebra(scan_results):
    t0 = time.time()
    ok = True
    for name in ("sl2", "heisenberg:1", "heisenberg:2"):
        suite, _table = scan_results[name]
        jac = [c for c in suite.checks if c["name"].endswith(".jacobi")]
        ok &= bool(jac) and all(c["status"] == "pass" for c in jac)
        coeff = [c for c in suite.checks
                 if c["name"].endswith(".coefficients")]
        ok &= bool(coeff) and all(c["status"] == "pass" for c in coeff)
        tau = [c for c in suite.checks if c["name"] == "classify.tau"]
        ok &= bool(tau) and all(c["status"] == "pass" for c in tau)
    _verdict(6, "Jacobi identity, coefficient lemma, embedded generator "
             "closed form", ok, time.time() - t0 + 0.0, 600.0)


def test_criterion_7_classification(scan_results):
    ok = True
    for name in ("sl2", "heisenberg:1"):
        suite, table = scan_results[name]
        ok &= not suite.failed
        reducible = sorted(
            (row["u"], row["c"]) for row in table
            if row["verdict"].startswith("reducible")
        )
        ok &= reducible == [("pi:1", 1), ("pi:1", 3), ("trivial", 0)]
        deg2 = [(r["u"], r["c"]) for r in table
                if "degrees 2" in r["verdict"]]
        ok &= deg2 == [("pi:1", 1)]
    suite, table = scan_results["heisenberg:2"]
    ok &= not suite.failed
    reducible = sorted(
        (row["u"], row["c"]) for row in table
        if row["verdict"].startswith("reducible")
    )
    ok &= reducible == [
        ("pi:1", 1), ("pi:1", 5), ("pi:2", 2), ("pi:2", 4), ("trivial", 0)
    ]
    deg2 = [(r["u"], r["c"]) for r in table if "degrees 2" in r["verdict"]]
    ok &= deg2 == [("pi:2", 2)]
    elapsed_n1 = scan_results["n1_elapsed"]
    elapsed_n2 = scan_results["n2_elapsed"]
    print(
        f"  scan timings: N=1 {elapsed_n1:.1f}s (budget 600s), "
        f"N=2 {elapsed_n2:.1f}s (budget 7200s)"
    )
    ok &= elapsed_n1 < 600 and elapsed_n2 < 7200
    _verdict(7, "reducibility classification with degree-two structure",
             ok, elapsed_n1 + elapsed_n2, 7800.0)


def test_criterion_8_twisted_complex():
    t0 = time.time()
    data = cl.heisenberg(1)
    mats = [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    twist = pfm.TwistData(data, mats)
    env = get_env(data)
    members = pfm.contact_complex_members(data)
    hmats = pfm.contact_complex_hmats(env, members)
    tw = [
        pfm.twist_hmat(env, twist, hmats[i], members[i].dim,
                       members[i + 1].dim)
        for i in range(len(hmats))
    ]
    ok = all(
        pfm.hmat_is_zero(pfm.compose_hmats(env, tw[i], tw[i + 1]))
        for i in range(len(tw) - 1)
    )
    specs, maps = twisted_contact_complex(data, twist)
    ok &= all(
        pa.complex_homomorphism_check(specs, maps, pos)
        for pos in range(len(maps))
    )
    _verdict(8, "twisted complex composes to zero and intertwines the "
             "action", ok, time.time() - t0, 120.0)


def test_criterion_9_annihilation():
    t0 = time.time()
    ok = True
    for name in ("sl2", "heisenberg:1"):
        env = get_env(cl.resolve_algebra(name))
        good, failures = an.fourier_images_check(env, 4)
        ok &= good
        good, _witness = an.w0_quotient_iso_check(env)
        ok &= good
        ok &= an.csp_quotient_check(env)
        ok &= an.iprime_expansion_check(env)
    _verdict(9, "Fourier coefficient images and quotient tables",
             ok, time.time() - t0, 120.0)
