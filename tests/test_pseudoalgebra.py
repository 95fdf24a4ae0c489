import os
import random
from fractions import Fraction

import pytest

from conftest import make_spec, twisted_contact_complex

from contactk import cli
from contactk import contact_lie as cl
from contactk import enveloping as ev
from contactk import exterior as ex
from contactk import linalg as la
from contactk import pseudoalgebra as pa
from contactk import pseudoforms as pfm
from contactk import report as report_mod
from contactk import sp_rep as sp
from contactk.enveloping import get_env

ONE = Fraction(1)
ZERO = Fraction(0)
ZI = (0, 0, 0)


def test_trivial_action_terms(heis1):
    # the defining formula on a generator of a module with trivial factors
    spec = make_spec(heis1, "trivial", 5)
    raw = pa.e_star_raw(spec, {(ZI, 0): ONE})
    want = {
        ((0, 1, 0), ZI, ((0, 0, 1), 0)): ONE,
        ((0, 0, 1), ZI, ((0, 1, 0), 0)): -ONE,
        ((1, 0, 0), ZI, (ZI, 0)): Fraction(5, 2),
        (ZI, ZI, ((1, 0, 0), 0)): -ONE,
    }
    assert raw == want


def test_zero_vector_acts_to_zero(heis1):
    spec = make_spec(heis1, "1", 1)
    assert pa.e_star_raw(spec, {}) == {}


def test_constant_quadratic_coefficients(heis1):
    # the right-normal coefficient of a constant vector at a quadratic
    # index is the symplectic generator applied to the vector
    spec = make_spec(heis1, "1", 2)
    env = spec.env
    for r in range(spec.dim_r):
        right = pa.to_right_normal(env, pa.e_star_raw(spec, {(ZI, r): ONE}))
        for i in (1, 2):
            for j in range(i, 3):
                prod = env.mono_mul(tuple(ev.eps(3, i)), tuple(ev.eps(3, j)))
                m = spec.rho_f(i, j)
                for I in prod:
                    if sum(I) != 2:
                        continue
                    got = right.get(I, {})
                    for rr in range(spec.dim_r):
                        # the ordered pairs (i, j) and (j, i) contribute the
                        # same symmetric generator, and the divided square
                        # carries the factor two itself
                        assert got.get((ZI, rr), ZERO) == 2 * m[rr][r]


def _dense_carrier(spec):
    """The carrier matrices of the generator formula, built dense."""
    data = spec.data

    def shifted(vec, k):
        return la.mat_add(spec.rho_d(vec), spec.rho_sp(sp.ad_sp(data, k)))

    first = shifted(data.basis_vector(0), 0)
    dual = [None] + [shifted(data.dual_vector(k), k)
                     for k in range(1, data.dim)]
    fmats = {(i, j): spec.rho_f(i, j)
             for i in range(1, data.dim) for j in range(1, data.dim)}
    return first, dual, fmats


def _dense_generator(spec, mats, r, plain=False):
    """The generator formula with each dense carrier matrix applied to
    the unit vector of r: the reference for the sparse carrier columns.
    With `plain`, the plain action T(Pi, U, c) of the generator
    e = 1 (x) e_0 - sum e_i (x) d^i instead, the reference for the
    identity V(Pi, U, c) = T(Pi (x) k_{tr ad}, U, c - 2N - 2)."""
    first, dual_mats, fmats = mats
    data = spec.data
    dim = data.dim
    zero_i = ev.unit_index(dim)
    eps0 = tuple(ev.eps(dim, 0))
    epsk = [tuple(ev.eps(dim, k)) for k in range(dim)]
    unit_u = tuple(ONE if i == r else ZERO for i in range(spec.dim_r))
    raw = {}

    def put(F, G, J, vec, scl=ONE):
        for rr, x in enumerate(vec):
            if x:
                key = (F, G, (J, rr))
                raw[key] = raw.get(key, ZERO) + scl * x
                if not raw[key]:
                    del raw[key]

    put(zero_i, zero_i, zero_i, la.mat_vec(first, unit_u))
    if plain:
        put(zero_i, eps0, zero_i, unit_u, -ONE)
        for i in range(1, dim):
            for m in range(1, dim):
                if data.rmat[i][m]:
                    put(epsk[i], epsk[m], zero_i, unit_u, data.rmat[i][m])
    else:
        put(zero_i, zero_i, eps0, unit_u, -ONE)
    for k in range(1, dim):
        put(epsk[k], zero_i, zero_i, la.mat_vec(dual_mats[k], unit_u), -ONE)
        dual = data.dual_vector(k)
        if not plain:
            for m in range(1, dim):
                if dual[m]:
                    put(epsk[k], zero_i, epsk[m], unit_u, dual[m])
    put(eps0, zero_i, zero_i, unit_u, spec.c / 2)
    for (i, j), fmat in fmats.items():
        fu = la.mat_vec(fmat, unit_u)
        for F, cf in spec.env.mono_mul(epsk[i], epsk[j]).items():
            put(F, zero_i, zero_i, fu, cf)
    return raw


def _dense_psi(spec, mats, u_vec):
    dim = spec.data.dim
    out = {}
    for (i, j), fmat in mats[2].items():
        fu = la.mat_vec(fmat, u_vec)
        prod = spec.env.mono_mul(tuple(ev.eps(dim, i)), tuple(ev.eps(dim, j)))
        for K, ck in prod.items():
            for r, x in enumerate(fu):
                if x:
                    out[(K, r)] = out.get((K, r), ZERO) + ck * x
    return {k: v for k, v in out.items() if v}


def test_sparse_carrier_matches_dense_formula(sl2, heis1, heis2):
    # the layout r = p*dim_u + u is exercised by the two-dimensional
    # nilpotent2 twist, which sl2 (a perfect algebra) does not have
    rng = random.Random(27)
    seen = set()
    for name, data in (("sl2", sl2), ("heis1", heis1), ("heis2", heis2)):
        us = ["trivial"] + [str(n) for n in range(1, data.N + 1)] + ["sym2"]
        twists = ["trivial", "tr-ad"] + (["nilpotent2"] if data is not sl2
                                         else [])
        for u in us:
            for twist_name in twists:
                twist = cli.builtin_twist(data, twist_name)
                spec = make_spec(data, u, Fraction(3, 2), twist)
                mats = _dense_carrier(spec)
                zero = ev.unit_index(data.dim)
                for r in range(spec.dim_r):
                    want = _dense_generator(spec, mats, r)
                    # the generator cache is c-free: the central term
                    # enters through e_star_raw
                    assert pa.e_star_raw(spec, {(zero, r): ONE}) == want, (
                        name, twist_name, u, r)
                    unit_u = tuple(ONE if i == r else ZERO
                                   for i in range(spec.dim_r))
                    assert pa.psi_map(spec, {r: ONE}) == \
                        _dense_psi(spec, mats, unit_u)
                # psi of a sparse u of up to four entries, a zero
                # coefficient allowed among them
                sparse = {r: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                          for r in rng.sample(range(spec.dim_r),
                                              min(4, spec.dim_r))}
                dense = tuple(sparse.get(r, ZERO) for r in range(spec.dim_r))
                assert pa.psi_map(spec, sparse) == \
                    _dense_psi(spec, mats, dense), (name, twist_name, u)
                seen.add((name, u, twist_name))
    assert len(seen) == 3 * 2 + 3 * 3 + 4 * 3


def _e_star_generator_reference(spec, r):
    """e * (1 (x) u_r) without the central term, keyed (F, (J, rr)) for
    the terms (e^(F) (x) 1) (x)_H (e^(J) (x) u_rr), with its quadratic
    part built by its own i, j loop over straightened e_i e_j rather than
    read from `psi_map`."""
    data, env = spec.data, spec.env
    dim = data.dim
    car = spec.carrier()
    zero_i = ev.unit_index(dim)
    unit_u = ((r, ONE),)
    epsk = [ev.eps(dim, k) for k in range(dim)]
    raw = {}

    def put(F, J, col, scl=ONE):
        for rr, x in col:
            la.vec_put(raw, (F, (J, rr)), scl * x)

    put(zero_i, zero_i, car.first[r])
    put(zero_i, epsk[0], unit_u, -ONE)
    for k in range(1, dim):
        put(epsk[k], zero_i, car.dual[k][r], -ONE)
        dual = data.dual_vector(k)
        for m in range(1, dim):
            if dual[m]:
                put(epsk[k], epsk[m], unit_u, dual[m])
    for i in range(1, dim):
        for j in range(1, dim):
            cols = car.f.get((i, j))
            if cols is None or not cols[r]:
                continue
            for F, cf in env.mono_mul(epsk[i], epsk[j]).items():
                put(F, zero_i, cols[r], cf)
    return raw


def test_e_star_generator_matches_reference_loop(heis2, heis2_rebased):
    for data in (heis2, heis2_rebased):
        for u in ("trivial", "1", "2", "sym2"):
            spec = make_spec(data, u, 0)
            for r in range(spec.dim_r):
                assert spec._e_star_generator(r) == \
                    _e_star_generator_reference(spec, r), (u, r)


def test_left_normal_example(heis1):
    env = get_env(heis1)
    raw = {(ZI, (0, 1, 0), (ZI, 0)): ONE}
    left = pa.to_left_normal(env, raw)
    assert left == {
        (0, 1, 0): {(ZI, 0): -ONE},
        ZI: {((0, 1, 0), 0): ONE},
    }


def normal_to_raw(side, terms):
    """Raw action terms whose other slot is 1, from a left- or right-normal
    form."""
    raw = {}
    for F, t in terms.items():
        zero = (0,) * len(F)
        for (J, r), c in t.items():
            if side == "left":
                raw[(F, zero, (J, r))] = c
            else:
                raw[(zero, F, (J, r))] = c
    return raw


def test_right_normal_of_left_slot_is_identity(heis1):
    env = get_env(heis1)
    raw = {((0, 1, 1), ZI, (ZI, 0)): Fraction(3)}
    right = pa.to_right_normal(env, normal_to_raw(
        "left", pa.to_left_normal(env, raw)))
    back = pa.to_left_normal(env, normal_to_raw("right", right))
    assert back == pa.to_left_normal(env, raw)


def test_normal_form_roundtrip_random(sl2):
    env = get_env(sl2)
    rng = random.Random(5)
    idx = ev.multi_indices(3, 2)
    for _ in range(20):
        raw = {}
        for _k in range(3):
            raw[(rng.choice(idx), rng.choice(idx), (rng.choice(idx), 0))] = \
                Fraction(rng.randint(-3, 3))
        raw = {k: v for k, v in raw.items() if v}
        l1 = pa.to_left_normal(env, raw)
        r1 = pa.to_right_normal(env, raw)
        l2 = pa.to_left_normal(env, normal_to_raw("right", r1))
        assert l1 == l2


def _reference_normal(env, raw, left):
    """The per-term rewriting that the memoized images replace: for the
    left form, (f (x) g) (x)_H v = sum (f S(g_(1)) (x) 1) (x)_H g_(2) v;
    for the right form the two legs trade places."""
    out = {}
    for (F, G, (J, r)), c in raw.items():
        keep, split = (F, G) if left else (G, F)
        for (S1, S2), cs in env.coproduct({split: ONE}).items():
            part = env.mul({keep: c * cs}, env.antipode_basis(S1))
            vpart = env.mono_mul(S2, J)
            for K, ck in part.items():
                for Jk, cj in vpart.items():
                    la.vec_iadd(out.setdefault(K, {}), {(Jk, r): ck * cj})
    return {K: t for K, t in out.items() if t}


def test_normal_form_images_match_reference(sl2, heis1, heis2):
    # sl2 is not nilpotent: S(e^(G1)) has several terms there
    assert len(ev.Enveloping(sl2).antipode_basis((0, 1, 1))) > 1
    rng = random.Random(11)
    for data in (sl2, heis1, heis2):
        env = ev.Enveloping(data)
        idx = ev.multi_indices(data.dim, 2)
        for _ in range(25):
            key = (rng.choice(idx), rng.choice(idx), rng.choice(idx))
            raw = {(key[0], key[1], (key[2], 0)): ONE}
            right_image = lambda F, G, J: env.left_image(G, F, J)
            for left, image in ((True, env.left_image),
                                (False, right_image)):
                got = image(*key)
                assert image(*key) is got
                want = _reference_normal(env, raw, left)
                assert dict(got) == {
                    (K, Jk): c for K, t in want.items()
                    for (Jk, _r), c in t.items()}
        for _ in range(10):
            raw = {}
            for _k in range(4):
                raw[(rng.choice(idx), rng.choice(idx),
                     (rng.choice(idx), rng.randrange(2)))] = \
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            raw = {k: v for k, v in raw.items() if v}
            assert pa.to_left_normal(env, raw) == \
                _reference_normal(env, raw, True)
            assert pa.to_right_normal(env, raw) == \
                _reference_normal(env, raw, False)


def test_singular_examples(heis1):
    spec0 = make_spec(heis1, "trivial", 0)
    assert pa.is_singular(spec0, {(ZI, 0): ONE})
    assert pa.is_singular(spec0, {((0, 1, 0), 0): ONE})
    assert pa.is_singular(spec0, {((0, 0, 1), 0): ONE})
    assert not pa.is_singular(spec0, {((1, 0, 0), 0): ONE})


def test_singular_disagreement_raises(heis1, monkeypatch):
    # the right-normal criterion is an explicit check, not an assert that
    # vanishes under python -O
    spec = make_spec(heis1, "trivial", 0)
    v = {(ZI, 0): ONE}
    assert pa.is_singular(spec, v)

    def disagreeing(env, raw):
        return {(0, 3, 0): {(ZI, 0): ONE}}

    monkeypatch.setattr(pa, "to_right_normal", disagreeing)
    with pytest.raises(ArithmeticError, match="disagree"):
        pa.is_singular(spec, v)


def test_singular_space_trivial_factor(heis1):
    basis, cutoff = pa.singular_space(make_spec(heis1, "trivial", 0))
    assert cutoff == 3 and len(basis) == 3
    basis5, _ = pa.singular_space(make_spec(heis1, "trivial", 5))
    assert len(basis5) == 1


def test_singular_space_fundamental(heis1):
    spec = make_spec(heis1, "1", 1)
    basis, cutoff = pa.singular_space(spec)
    assert cutoff == 2
    deg2 = [v for v in basis if pa.element_degree(v) == 2]
    assert len(basis) == spec.dim_r + len(deg2) and deg2
    basis2, _ = pa.singular_space(make_spec(heis1, "1", 2))
    assert len(basis2) == spec.dim_r  # constants only


def test_classification_scan_n1(small_algebras):
    for data in small_algebras.values():
        for kind, p in (("trivial", 0), ("1", 1), ("sym2", 0)):
            rule = {"trivial": "trivial", "1": "fundamental",
                    "sym2": "other"}[kind]
            for c in range(-3, 7):
                verdict = pa.classify(make_spec(data, kind, c))
                want_red, want_deg = pa.expected_verdict(rule, p, c, 1)
                assert verdict.reducible == want_red, (kind, c)
                if want_red:
                    assert verdict.degrees == want_deg, (kind, c)


def test_classification_nonunimodular(nonuni):
    # the classification rule is independent of the trace character
    for kind, p, rule in (("trivial", 0, "trivial"), ("1", 1, "fundamental")):
        for c in range(-1, 5):
            verdict = pa.classify(make_spec(nonuni, kind, c))
            want_red, want_deg = pa.expected_verdict(rule, p, c, 1)
            assert verdict.reducible == want_red, (kind, c, verdict)
            if want_red:
                assert verdict.degrees == want_deg


def test_degree2_structure(heis1):
    spec = make_spec(heis1, "1", 1)
    basis, _ = pa.singular_space(spec)
    deg2 = [v for v in basis if pa.element_degree(v) == 2]
    assert deg2
    for v in deg2:
        ok, details = pa.degree2_structure_check(spec, v, p=1)
        assert ok, details
        assert not details["u_is_zero"]
    ok, details = pa.degree2_structure_check(spec, {(ZI, 0): ONE}, p=1)
    assert ok and details["u_is_zero"]
    bad = dict(deg2[0])
    bad[((0, 1, 0), 0)] = bad.get(((0, 1, 0), 0), ZERO) + 1
    assert not pa.degree2_structure_check(spec, bad, p=1)[0]
    # a two-dimensional Pi: the Casimir on U acts on each Pi block of u
    spec = make_spec(heis1, "1", 1, cli.builtin_twist(heis1, "nilpotent2"))
    basis, _ = pa.singular_space(spec)
    deg2 = [v for v in basis if pa.element_degree(v) == 2]
    assert deg2
    for v in deg2:
        ok, details = pa.degree2_structure_check(spec, v, p=1)
        assert ok and not details["u_is_zero"], details


def test_coefficient_lemma(heis1):
    for c in (1, 3):
        spec = make_spec(heis1, "1", c)
        basis, _ = pa.singular_space(spec)
        for v in basis:
            assert pa.coefficient_lemma_check(spec, v)


def test_grading_eigenvalues(heis1):
    for c in (1, 3):
        spec = make_spec(heis1, "1", c)
        basis, _ = pa.singular_space(spec)
        assert basis
        for v in basis:
            deg = pa.element_degree(v)
            iv = pa.rho_sing_iprime(spec, v)
            top = {k: x for k, x in v.items()
                   if ev.contact_degree(k[0]) == deg}
            for k, x in top.items():
                assert iv.get(k, ZERO) == (Fraction(c) + deg) * x


def _iprime_by_pairings(spec, v):
    """rho_sing(I') v as 1 + #omega Fourier pairings, one per term of the
    functional 2 x^0 + sum_{i<j} omega_ij x^i x^j."""
    data = spec.data
    dim = data.dim
    acc = {}
    for key, c in pa.fourier_act(spec, ev.dual_covector(dim, 0, 4), v).items():
        la.vec_put(acc, key, 2 * c)
    for i in range(1, dim):
        for j in range(i + 1, dim):
            w = data.omega[i][j]
            if not w:
                continue
            xij = ev.dual_monomial(
                dim, ev.add_index(ev.eps(dim, i), ev.eps(dim, j)), 4)
            for key, c in pa.fourier_act(spec, xij, v).items():
                la.vec_put(acc, key, w * c)
    return {k: -c for k, c in acc.items()}


@pytest.mark.parametrize("name", ["heis1", "heis2"])
def test_rho_sing_iprime_is_one_pairing(name, request):
    # at every reducible point of the rule, on every singular vector
    data = request.getfixturevalue(name)
    nn = data.N
    points = [("trivial", 0)] + [(str(p), c) for p in range(1, nn + 1)
                                 for c in sorted({p, 2 * nn + 2 - p})]
    for kind, c in points:
        spec = make_spec(data, kind, c)
        basis, _ = pa.singular_space(spec)
        assert len(basis) > spec.dim_r, (kind, c)
        for v in basis:
            assert pa.rho_sing_iprime(spec, v) == _iprime_by_pairings(spec, v)


def rho_sing_f(spec, i, j, v):
    """rho_sing(f^{ij}) v = (x^i x^j (x)_H e) v / 2."""
    dim = spec.data.dim
    xij = ev.dual_monomial(
        dim, ev.add_index(tuple(ev.eps(dim, i)), tuple(ev.eps(dim, j))), 4)
    return {k: c / 2 for k, c in pa.fourier_act(spec, xij, v).items()}


def test_rho_sing_on_constants(heis1):
    spec = make_spec(heis1, "1", 1)
    for i in (1, 2):
        for j in (i, 2):
            m = spec.rho_f(i, j)
            for r in range(spec.dim_r):
                got = rho_sing_f(spec, i, j, {(ZI, r): ONE})
                want = {(ZI, rr): m[rr][r]
                        for rr in range(spec.dim_r) if m[rr][r]}
                assert got == want


def test_skewness(algebras, nonuni):
    for data in list(algebras.values()) + [nonuni]:
        assert pa.skewness_check(data)


def _jacobi_on_members(data):
    # the members are built with a shifted twist and central scalar
    return all(pa.jacobi_check(pa.member_tensor_spec(data, mem)) == []
               for mem in pfm.contact_complex_members(data))


def test_jacobi(heis1, sl2):
    for data in (heis1, sl2):
        for kind, c in (("trivial", 0), ("1", 1), ("1", -2), ("sym2", 3)):
            assert pa.jacobi_check(make_spec(data, kind, c)) == []
    assert _jacobi_on_members(heis1)


def test_jacobi_nonunimodular(nonuni):
    assert pa.jacobi_check(make_spec(nonuni, "1", 2)) == []
    assert _jacobi_on_members(nonuni)


def _jacobi_at(spec):
    """The Jacobi identity at the spec's own c, on each 1 (x) u_r, all
    three terms in left-normal position: the per-c reference for the
    defect that `jacobi_check` finds as a polynomial in c."""
    env = spec.env
    zero = ev.unit_index(spec.data.dim)
    g = pa.bracket_element(spec.data)
    for r in range(spec.dim_r):
        left1 = pa.to_left_normal(env, pa.e_star_raw(spec, {(zero, r): ONE}))
        # e * (e * v) at (f' (x) f (x) 1), minus the same with the legs
        # swapped
        rhs = {}
        for F, w in left1.items():
            inner = pa.to_left_normal(env, pa.e_star_raw(spec, w))
            for F2, t in inner.items():
                for key, sign in (((F2, F), ONE), ((F, F2), -ONE)):
                    acc = rhs.setdefault(key, {})
                    for vk, c in t.items():
                        la.vec_put(acc, vk, sign * c)
        # g . D(e^(F)) in H (x) H, tensored with w_F
        lhs = {}
        for F, w in left1.items():
            for key, cg in env.tensor_mul(
                    g, env.coproduct({F: ONE})).items():
                acc = lhs.setdefault(key, {})
                for vk, c in w.items():
                    la.vec_put(acc, vk, cg * c)
        if ({k: t for k, t in lhs.items() if t}
                != {k: t for k, t in rhs.items() if t}):
            return False
    return True


def _vanishes_at(defect, c):
    return not any(d0 + c * (d1 + c * d2) for d0, d1, d2 in defect)


def _builtin_us(data):
    return ["trivial"] + [str(n) for n in range(1, data.N + 1)] + ["sym2"]


def _assert_defect_matches_per_c(data, window):
    for u in _builtin_us(data):
        defect = pa.jacobi_check(make_spec(data, u, 0))
        assert [_vanishes_at(defect, c) for c in window] == [
            _jacobi_at(make_spec(data, u, c)) for c in window]


def test_jacobi_defect_matches_per_c(heis1, heis2, nonuni):
    # the polynomial defect vanishes at c exactly where the identity
    # checked at c holds, for every U and c of the classify window
    for data in (heis1, heis2, nonuni):
        _assert_defect_matches_per_c(data, range(-3, 2 * data.N + 5))


def _classify_jacobi(data, c_min, c_max):
    suite = report_mod.Suite()
    cli.run_classify(suite, data, c_min, c_max, pfm.trivial_twist(data))
    return {c["name"]: c["status"] for c in suite.checks
            if c["name"].endswith(".jacobi")}


def test_jacobi_failure_names_each_c(heis1, monkeypatch):
    # a defect -2 + c vanishes only at c = 2; every other c of the
    # window fails its own record, and jacobi_check runs once per U
    specs = []

    def defect_at_two(spec):
        specs.append(spec)
        return [(-2, 1, 0)]

    monkeypatch.setattr(pa, "jacobi_check", defect_at_two)
    got = _classify_jacobi(heis1, -3, 6)
    failed = sorted(n for n, status in got.items() if status == "fail")
    assert failed == sorted(f"classify.{u}.c={c}.jacobi"
                            for u in ("trivial", "pi:1", "sym2")
                            for c in range(-3, 7) if c != 2)
    assert len(got) == 3 * 10
    assert len(specs) == 3


def test_jacobi_sees_a_doubled_bracket(sl2, heis1, monkeypatch):
    # the identity then fails, and the defect agrees with the per-c check
    real = pa.bracket_element
    monkeypatch.setattr(pa, "bracket_element", lambda data: {
        k: 2 * x for k, x in real(data).items()})
    for data in (sl2, heis1):
        assert pa.jacobi_check(make_spec(data, "1", 0))
        _assert_defect_matches_per_c(data, range(-3, 7))


def test_jacobi_sees_a_central_term_doubled_in_the_second_action(
        sl2, heis1, monkeypatch):
    # the second action reads the left-normal coefficients w_F of the
    # first; doubling its central term only there breaks the identity,
    # except at c = 0 where the central term is absent
    coefficients = []
    real_normal, real_central = pa.to_left_normal, pa._put_central

    def normal(env, raw):
        out = real_normal(env, raw)
        coefficients.extend(out.values())
        return out

    def central(out, dim, v, scl):
        second = any(v is w for w in coefficients)
        return real_central(out, dim, v, 2 * scl if second else scl)

    monkeypatch.setattr(pa, "to_left_normal", normal)
    monkeypatch.setattr(pa, "_put_central", central)
    for data in (sl2, heis1):
        defect = pa.jacobi_check(make_spec(data, "1", 0))
        assert defect and _vanishes_at(defect, 0)
        assert not _vanishes_at(defect, 1)


def test_rescaled_central_term_passes_jacobi_but_fails_classify(
        heis1, monkeypatch):
    # c/2 -> c/3 in both actions only renames c, so the Jacobi defect
    # stays zero; the classification against the rule must catch it
    real = pa._put_central
    monkeypatch.setattr(pa, "_put_central", lambda out, dim, v, scl: real(
        out, dim, v, scl * Fraction(2, 3)))
    assert pa.jacobi_check(make_spec(heis1, "1", 0)) == []
    suite = report_mod.Suite()
    cli.run_classify(suite, heis1, -3, 6, pfm.trivial_twist(heis1))
    status = {c["name"]: c["status"] for c in suite.checks}
    assert all(s == "pass" for n, s in status.items()
               if n.endswith(".jacobi"))
    assert status["classify.pi:1.c=1"] == "fail"


def test_siblings_match_fresh_specs(heis1, heis2):
    # base.at(c) shares every c-free part with base and builds singular
    # columns as m0 + c m1; it must agree with a spec built at c directly
    cs = (-1, 0, 1, 2, Fraction(7, 3))
    for data in (heis1, heis2):
        zero = ev.unit_index(data.dim)
        eps = [tuple(ev.eps(data.dim, k)) for k in range(data.dim)]
        for twist_name in ("trivial", "nilpotent2"):
            twist = cli.builtin_twist(data, twist_name)
            for u in ["trivial"] + [str(n) for n in range(1, data.N + 1)] + [
                    "sym2"]:
                base = make_spec(data, u, 5, twist)
                for c in cs:
                    sib = base.at(c)
                    fresh = make_spec(data, u, c, twist)
                    assert sib.c == c and base.c == 5
                    assert sib.carrier() is base.carrier()
                    where = (data.dim, twist_name, u, c)
                    assert pa.singular_space(sib) == \
                        pa.singular_space(fresh), where
                    for r in range(fresh.dim_r):
                        for v in ({(zero, r): ONE},
                                  {(eps[0], r): ONE, (eps[1], r): -ONE}):
                            assert pa.e_star_raw(sib, v) == \
                                pa.e_star_raw(fresh, v), where


def test_standalone_spec_streams_its_columns(heis1, monkeypatch):
    # a standalone spec gets its residues as an iterator and keeps none;
    # its first sibling makes the shared state keep the residue list, the
    # images mod P of the streamed pairs, and no exact column is kept
    returned = []
    real = pa._residue_pairs

    def spy(spec, cutoff):
        returned.append(real(spec, cutoff))
        return returned[-1]

    monkeypatch.setattr(pa, "_residue_pairs", spy)
    spec = make_spec(heis1, "1", 1)
    basis, cutoff = pa.singular_space(spec)
    assert spec._state.residues is None
    assert not isinstance(returned[0], list) and iter(returned[0]) is \
        returned[0]
    sib = spec.at(1)
    assert pa.singular_space(sib) == (basis, cutoff)
    assert isinstance(returned[1], list)
    assert spec._state.residues == {cutoff: returned[1]}
    assert returned[1] == [
        (label, la.vec_mod(m0), la.vec_mod(m1))
        for label, m0, m1 in pa._stream_pairs(spec, cutoff)]
    assert not hasattr(spec._state, "columns")


def test_sibling_check_streams_only_its_support(heis1, monkeypatch):
    # on the heisenberg:1 scan, each singular_space call on a sibling that
    # needs no exact fallback asks _stream_pairs for exactly the labels of
    # the basis it returns: the exact columns the lift check reads
    requests, fallbacks, checked = [], [], []
    real_stream = pa._stream_pairs
    real_space = pa.singular_space
    real_exact = la.exact_kernel

    def stream(spec, cutoff, labels=None):
        if labels is not None:
            requests.append(set(labels))
        return real_stream(spec, cutoff, labels)

    def exact(columns):
        fallbacks.append(True)
        return real_exact(columns)

    def space(spec, cutoff=None):
        requests.clear()
        fallbacks.clear()
        basis, used = real_space(spec, cutoff)
        if spec._state.residues is not None and not fallbacks:
            assert requests == [set().union(*basis)], spec.c
            checked.append(spec.c)
        return basis, used

    monkeypatch.setattr(pa, "_stream_pairs", stream)
    monkeypatch.setattr(la, "exact_kernel", exact)
    monkeypatch.setattr(pa, "singular_space", space)
    suite = report_mod.Suite()
    cli.run_classify(suite, heis1, -3, 6, pfm.trivial_twist(heis1))
    assert all(c["status"] != "fail" for c in suite.checks)
    # trivial, pi:1 and sym2, ten values of c each
    assert len(checked) == 30


def _exact_singular_space(spec, cutoff):
    sys = la.LinearSystem()
    for label, m0, m1 in pa._stream_pairs(spec, cutoff):
        sys.add_column(label, la.vec_iadd(m0, m1, spec.c))
    return sys.kernel()


def test_modular_singular_space_matches_exact(sl2, heis1, heis2,
                                              heis2_rebased, monkeypatch):
    # every point of the default scans, and the reducible points plus the
    # first c of the re-based datum (its exact eliminations are slow): the
    # kernel found mod P, lifted and checked is the exact kernel, vector by
    # vector and entry by entry, and no point needs the exact fallback
    def no_fallback(columns):
        raise AssertionError("singular_space fell back to exact elimination")

    monkeypatch.setattr(la, "exact_kernel", no_fallback)
    nonuni_file = cl.load_algebra_file(
        os.path.join(os.path.dirname(__file__), "data", "nonuni.json"))
    for data, every_c in ((sl2, True), (heis1, True), (heis2, True),
                          (nonuni_file, True), (heis2_rebased, False)):
        gens = sp.sp_gens_for(data)
        twist = cli.builtin_twist(data, "trivial")
        window = range(-3, 2 * data.N + 5)
        for name in ["trivial"] + [f"pi:{n}" for n in range(1, data.N + 1)] \
                + ["sym2"]:
            rep, (kind, p) = cli.builtin_u(data, gens, name)
            base = pa.TensorModuleSpec(data, twist, rep, window[0])
            cs = window if every_c else [window[0]] + [
                c for c in window if pa.expected_verdict(kind, p, c, data.N)[0]]
            for c in cs:
                spec = base.at(c)
                basis, cutoff = pa.singular_space(spec)
                want = _exact_singular_space(spec, cutoff)
                assert [list(v.items()) for v in basis] == \
                    [list(v.items()) for v in want], (data.dim, name, c)


def _filtration_dims_per_degree(basis, cutoff):
    # one kernel per degree d: the combinations of the basis whose
    # coefficients beyond contact degree d cancel
    dims = []
    for d in range(cutoff + 1):
        sys = la.LinearSystem()
        for k, v in enumerate(basis):
            sys.add_column(k, {key: c for key, c in v.items()
                               if ev.contact_degree(key[0]) > d})
        dims.append(len(sys.kernel()))
    return dims


def test_filtration_dims_match_per_degree_kernels(heis1, heis2):
    points = [(heis1, "trivial", 0), (heis1, "1", 1), (heis1, "1", 3),
              (heis2, "trivial", 0), (heis2, "1", 1), (heis2, "1", 5),
              (heis2, "2", 2), (heis2, "2", 4)]
    for data, u, c in points:
        spec = make_spec(data, u, c)
        basis, cutoff = pa.singular_space(spec)
        assert len(basis) > spec.dim_r, (u, c)
        for cut in (cutoff, cutoff + 1):
            assert pa.filtration_dims(basis, cut) == \
                _filtration_dims_per_degree(basis, cut), (data.dim, u, c)
    # random sparse independent sets: the reference counts dependencies
    # too, so only independent vectors are kept
    rng = random.Random(11)
    keys = [(I, r) for I in ev.contact_indices(3, 4) for r in range(2)]
    for _ in range(40):
        ech, basis = la.Echelon(), []
        for _k in range(rng.randint(1, 8)):
            v = {}
            for key in rng.sample(keys, rng.randint(1, 4)):
                v[key] = Fraction(rng.choice((-3, -1, 1, 2)))
            if ech.add(v) is not None:
                basis.append(v)
        assert pa.filtration_dims(basis, 4) == \
            _filtration_dims_per_degree(basis, 4), basis


def test_tau_identity(algebras, nonuni):
    for data in list(algebras.values()) + [nonuni]:
        assert pa.tau_check(data)
        rhs = pa.tau_rhs(data)
        # the column part never vanishes identically for these data
        assert any(
            m[k][0] != 0 for m in rhs.values() for k in range(1, data.dim)
        )


def _put_matrix(out, I, mat, scl=ONE):
    """Add scl * mat to the gl(d) matrix stored at multi-index I."""
    if la.is_zero_matrix(mat):
        return
    acc = out.get(I)
    scaled = la.mat_scale(mat, scl)
    out[I] = scaled if acc is None else la.mat_add(acc, scaled)


def _put_quadratic(out, env, i, j, mat, scl):
    dim = env.dim
    for K, ck in env.mono_mul(ev.eps(dim, i), ev.eps(dim, j)).items():
        _put_matrix(out, K, mat, scl * ck)


def _tau_of_e_reference(data):
    env = get_env(data)
    dim = data.dim
    out = {}
    _put_matrix(out, ev.unit_index(dim), data.ad_matrix(0))
    for j in range(dim):
        _put_matrix(out, ev.eps(dim, j), la.elementary(dim, 0, j))
    for i in range(1, dim):
        _put_matrix(out, ev.eps(dim, i), sp.ad_dual(data, i), -ONE)
        for j in range(dim):
            _put_quadratic(out, env, i, j, sp.e_raised_full(data, i, j), -ONE)
    return {I: m for I, m in out.items() if not la.is_zero_matrix(m)}


def _tau_rhs_reference(data):
    env = get_env(data)
    dim = data.dim
    gens = sp.sp_gens_for(data)
    out = {}
    _put_matrix(out, ev.unit_index(dim), pa.adsp_full(data, 0))
    for i in range(1, dim):
        _put_matrix(out, ev.eps(dim, i), pa.adsp_full(data, i), -ONE)
    _put_matrix(out, ev.eps(dim, 0), gens.i_prime, Fraction(1, 2))
    for i in range(1, dim):
        _put_quadratic(out, env, i, 0, sp.e_raised_full(data, i, 0), -ONE)
    for i in range(1, dim):
        for j in range(1, dim):
            _put_quadratic(out, env, i, j,
                           sp.embed_bar(data, gens.f(i, j)), ONE)
    return {I: m for I, m in out.items() if not la.is_zero_matrix(m)}


def test_tau_sums_match_matrix_accumulation(algebras, nonuni, heis2_rebased):
    # tau_check compares tau_of_e with tau_rhs, which share their
    # summation; here each is summed matrix by matrix on its own
    for data in list(algebras.values()) + [nonuni, heis2_rebased]:
        assert pa.tau_of_e(data) == _tau_of_e_reference(data)
        assert pa.tau_rhs(data) == _tau_rhs_reference(data)


def test_convention_bridge(heis1, pi2_heis1, nonuni, heis2):
    # V(Pi, U, c) = T(Pi (x) k_{tr ad}, U, c - 2N - 2): the tensor-module
    # action equals the plain one twisted by the trace character with the
    # central scalar moved by 2N+2
    cases = [(heis1, pi2_heis1), (nonuni, pfm.trivial_twist(nonuni)),
             (heis2, cli.builtin_twist(heis2, "nilpotent2"))]
    for data, twist in cases:
        gens = sp.build_sp(data)
        rep = sp.fundamental_rep(data, gens, 1)
        tw = pfm.twist_times_character(twist, data.trace_ad)
        for c in (0, 1, 2):
            specv = pa.TensorModuleSpec(data, twist, rep, Fraction(c))
            # only the carrier and c of this spec are read, by the
            # dense plain formula
            spect = pa.TensorModuleSpec(
                data, tw, rep, Fraction(c) - (2 * data.N + 2))
            mats = _dense_carrier(spect)
            for r in range(specv.dim_r):
                v = {((0,) * data.dim, r): ONE}
                lv = pa.to_left_normal(specv.env, pa.e_star_raw(specv, v))
                lt = pa.to_left_normal(
                    spect.env, _dense_generator(spect, mats, r, plain=True))
                assert lv == lt, (data.dim, c, r)


def test_member_action_matches_direct(heis1, nonuni, heis2):
    # nonuni has a nonzero trace character, so its members see the shift
    # of Pi by minus the trace
    for data in (heis1, nonuni, heis2):
        env = get_env(data)
        zero = ev.unit_index(data.dim)
        for mem in pfm.contact_complex_members(data):
            spec = pa.member_tensor_spec(data, mem)
            for gi, f in enumerate(mem.basis):
                direct = pfm.e_star_direct(env, pfm.pf_from_form(data.dim, f))
                grouped = {}
                for (F, G, T), c in direct.items():
                    grouped.setdefault((F, G), {})[T] = c
                raw = {}
                for (F, G), coeffs in grouped.items():
                    cform = ex.form(mem.degree, coeffs)
                    for idx, cc in mem.form_coords(cform).items():
                        key = (F, G, (zero, idx))
                        raw[key] = raw.get(key, ZERO) + cc
                raw = {k: v for k, v in raw.items() if v}
                lhs = pa.to_left_normal(env, raw)
                rhs = pa.to_left_normal(
                    env, pa.e_star_raw(spec, {(zero, gi): ONE})
                )
                assert lhs == rhs, (data.dim, mem.degree, gi)


def test_complex_homomorphisms(heis1, pi2_heis1):
    for twist in (None, pi2_heis1):
        specs, hmats = twisted_contact_complex(heis1, twist)
        for pos in range(len(hmats)):
            assert pa.complex_homomorphism_check(specs, hmats, pos)


def v_index_of_member(data, member):
    """Position of a member in the decreasing tensor-module indexing."""
    nn = data.N
    if member.kind == "quotient":
        return 2 * nn + 2 - member.degree
    return 2 * nn + 1 - member.degree


def test_v_index_of_member(heis1):
    members = pfm.contact_complex_members(heis1)
    assert [v_index_of_member(heis1, m) for m in members] == [4, 3, 1, 0]


def test_audit_cutoff_finds_nothing_new(heis1):
    # an audit sweep above the default bound adds no new singular vectors
    spec = make_spec(heis1, "1", 1)
    b2, _ = pa.singular_space(spec, 2)
    b4, _ = pa.singular_space(spec, 4)
    assert len(b2) == len(b4)


def test_zero_map_is_a_homomorphism(heis1):
    spec = make_spec(heis1, "1", 1)
    assert pa.homomorphism_check(spec, spec, {})


def test_generalizes_beyond_small_rank():
    # dimension seven: Casimir scalars and the classification rule keep
    # holding, with the degree-two vector at the middle fundamental weight
    from contactk import contact_lie as cl

    data = cl.heisenberg(3)
    gens = sp.build_sp(data)
    rep3 = sp.fundamental_rep(data, gens, 3)
    val = sp.scalar_matrix_value(sp.casimir_apply(data, gens, rep3))
    assert val == Fraction(15, 2)
    triv = pfm.trivial_twist(data)
    spec = pa.TensorModuleSpec(data, triv, rep3, Fraction(3))
    verdict = pa.classify(spec)
    assert verdict.reducible and verdict.degrees == (2,)
    spec = pa.TensorModuleSpec(
        data, triv, sp.fundamental_rep(data, gens, 1), Fraction(2)
    )
    assert not pa.classify(spec).reducible


def test_singular_dimension_predictions(heis1, heis2, pi2_heis1):
    cases = [
        (heis1, None, "trivial", 0, 0), (heis1, None, "1", 1, 1),
        (heis1, None, "1", 1, 3), (heis1, pi2_heis1, "1", 1, 1),
        (heis2, None, "2", 2, 2), (heis2, None, "1", 1, 5),
    ]
    for data, twist, u_kind, p, c in cases:
        spec = make_spec(data, u_kind, c, twist=twist)
        basis, _ = pa.singular_space(spec)
        kind = "trivial" if u_kind == "trivial" else "fundamental"
        per_unit = pa.expected_nonconstant_dim(kind, p, c, data.N)
        assert len(basis) - spec.dim_r == spec.dim_pi * per_unit, (u_kind, c)


def test_singular_iff_killed_by_filtration_step(heis1):
    # the coefficient criterion agrees with the annihilation-operator one:
    # singular vectors are exactly those killed by Fourier coefficients of
    # contact degree at least three
    spec = make_spec(heis1, "1", 1)
    basis, _ = pa.singular_space(spec)
    deep = [I for I in ev.contact_indices(3, 4) if ev.contact_degree(I) >= 3]
    for v in basis:
        for I in deep:
            x = ev.dual_monomial(3, I, 6)
            assert pa.fourier_act(spec, x, v) == {}
    spec0 = make_spec(heis1, "trivial", 0)
    bad = {((1, 0, 0), 0): ONE}  # the distinguished direction, not singular
    assert any(
        pa.fourier_act(spec0, ev.dual_monomial(3, I, 6), bad) != {}
        for I in deep
    )
