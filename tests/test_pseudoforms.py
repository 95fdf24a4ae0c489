import random
from fractions import Fraction

from contactk import enveloping as ev
from contactk import exterior as ex
from contactk import linalg as la
from contactk import pseudoforms as pfm
from contactk.enveloping import get_env
from conftest import insert_index

ONE = Fraction(1)


def rand_pf(rng, dim, n, max_plain=2, terms=2):
    idx = ev.multi_indices(dim, max_plain)
    keys = ex.monomials(dim, n)
    out = {}
    for _ in range(terms):
        out[(rng.choice(idx), rng.choice(keys))] = Fraction(rng.randint(-3, 3))
    return pfm.pform(n, {k: v for k, v in out.items() if v})


def test_d_of_unit_is_minus_eps(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        one = pfm.pf_from_form(3, ex.scalar_form(1))
        assert pfm.pseudo_d(env, one) == (-ONE) * pfm.eps_pseudoform(3)


def test_d_squared_spanning(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        for n in range(4):
            for I in ev.multi_indices(3, 3):
                for S in ex.monomials(3, n):
                    a = pfm.pform(n, {(I, S): 1})
                    assert pfm.pseudo_d(env, pfm.pseudo_d(env, a)).is_zero()


def test_d_squared_random_heis2(heis2):
    env = get_env(heis2)
    rng = random.Random(17)
    for _ in range(15):
        a = rand_pf(rng, 5, rng.randint(0, 3))
        assert pfm.pseudo_d(env, pfm.pseudo_d(env, a)).is_zero()


def test_h_linearity(small_algebras):
    rng = random.Random(1)
    for data in small_algebras.values():
        env = get_env(data)
        idx = ev.multi_indices(3, 2)
        for _ in range(15):
            hh = {rng.choice(idx): Fraction(rng.randint(-2, 2))}
            hh = {k: v for k, v in hh.items() if v} or {(0, 0, 0): ONE}
            a = rand_pf(rng, 3, rng.randint(0, 2))
            assert pfm.pseudo_d(env, pfm.h_mul_pf(env, hh, a)) == \
                pfm.h_mul_pf(env, hh, pfm.pseudo_d(env, a))


def test_eps_relation(small_algebras):
    epsf = pfm.eps_pseudoform(3)
    for data in small_algebras.values():
        env = get_env(data)
        for n in range(4):
            for I in ev.multi_indices(3, 2):
                for S in ex.monomials(3, n):
                    a = pfm.pform(n, {(I, S): 1})
                    lhs = pfm.pseudo_d(env, a) - pfm.d0_h(env, a)
                    sign = -ONE if n % 2 == 0 else ONE
                    assert lhs == sign * pfm.wedge_pseudo(env, a, epsf)


def _d0_h_reference(env, a):
    """d0 applied coefficient by coefficient with `exterior.d0`."""
    out = {}
    for I in pfm.pf_h_support(a):
        for S, c in ex.d0(env.data, pfm.pf_component(a, I)).items():
            out[(I, S)] = c
    return pfm.pform(a.degree + 1, out)


def test_d0_h_matches_coefficientwise_d0(algebras):
    # pseudo_d and d0_h share their bracket terms, so the eps relation
    # above cannot see a fault in them; exterior.d0 is an independent
    # copy of the formula
    rng = random.Random(29)
    for data in algebras.values():
        env = get_env(data)
        for n in range(data.dim + 1):
            for _ in range(6):
                a = rand_pf(rng, data.dim, n, terms=4)
                assert pfm.d0_h(env, a) == _d0_h_reference(env, a), (
                    data.dim, a)


def _e_star_direct_degree0_reference(env, pf):
    """e * g for a degree-0 pseudoform g in closed form: w * g = -f (x) g a
    for each summand w = f (x) a of e = 1 (x) e_0 - sum_i e_i (x) d^i."""
    data = env.data
    out = {}
    for (I, _S), c in pf.items():
        prod = env.mul({I: ONE}, ev.generator(data.dim, 0))
        for K, ck in prod.items():
            la.vec_put(out, ((0,) * data.dim, K, ()), -c * ck)
    for i in range(1, data.dim):
        gen_i = ev.eps(data.dim, i)
        di = ev.from_vector(data.dual_vector(i))
        for (I, _S), c in pf.items():
            for K, ck in env.mul({I: ONE}, di).items():
                la.vec_put(out, (tuple(gen_i), K, ()), c * ck)
    return out


def test_e_star_direct_degree0_matches_closed_form(algebras, heis2_rebased):
    # the member actions only feed 1 (x) 1 in degree 0; these coefficients
    # are not constant, so the order of g and a matters
    rng = random.Random(31)
    for data in list(algebras.values()) + [heis2_rebased]:
        env = get_env(data)
        for _ in range(6):
            a = rand_pf(rng, data.dim, 0, max_plain=3, terms=3)
            assert any(sum(I) for (I, _S), _c in a.items())
            assert pfm.e_star_direct(env, a) == \
                _e_star_direct_degree0_reference(env, a), (data.dim, a)


def test_d_theta(small_algebras):
    for data in small_algebras.values():
        env = get_env(data)
        th = pfm.pf_from_form(3, ex.theta_form(data))
        om = pfm.pf_from_form(3, ex.omega_form(data))
        epsf = pfm.eps_pseudoform(3)
        assert pfm.pseudo_d(env, th) == om - pfm.wedge_pseudo(env, epsf, th)


def test_wedge_operator_relations(small_algebras):
    for data in small_algebras.values():
        assert pfm.relations_check(get_env(data), 2)


def test_rumin_map_well_defined(small_algebras):
    rng = random.Random(7)
    for data in small_algebras.values():
        env = get_env(data)
        for _ in range(12):
            a = rand_pf(rng, 3, 1)
            r1 = pfm.rumin_map(env, a)
            assert r1 == pfm.rumin_map(env, a, reverse=True)
            assert pfm.in_K_pseudo(env, r1)
        # vanishing on the ideal: theta-multiples in degree N = 1
        for I in ev.multi_indices(3, 2):
            mu = pfm.pform(0, {(I, ()): 1})
            assert pfm.rumin_map(env, pfm.theta_mul_p(env, mu)).is_zero()
        # composition with the differential vanishes on 0-forms
        for I in ev.multi_indices(3, 2):
            a = pfm.pform(0, {(I, ()): 1})
            assert pfm.rumin_map(env, pfm.pseudo_d(env, a)).is_zero()


def test_rumin_heisenberg_two_pivot_orders_specific(heis1):
    env = get_env(heis1)
    a = pfm.pform(1, {((0, 1, 0), (2,)): ONE, ((1, 0, 0), (1,)): Fraction(-2)})
    r1 = pfm.rumin_map(env, a)
    r2 = pfm.rumin_map(env, a, reverse=True)
    assert r1 == r2 and pfm.in_K_pseudo(env, r1)


def test_complex_members_and_maps(algebras):
    want_dims = {"sl2": [1, 2, 2, 1], "heis1": [1, 2, 2, 1],
                 "heis2": [1, 4, 5, 5, 4, 1]}
    for name, data in algebras.items():
        env = get_env(data)
        members = pfm.contact_complex_members(data)
        assert [m.dim for m in members] == want_dims[name]
        assert [str(m.natural_c) for m in members] == (
            ["0", "-1", "-3", "-4"] if data.N == 1
            else ["0", "-1", "-2", "-4", "-5", "-6"]
        )
        hmats = pfm.contact_complex_hmats(env, members)
        for i in range(len(hmats) - 1):
            assert pfm.hmat_is_zero(
                pfm.compose_hmats(env, hmats[i], hmats[i + 1])
            )


def test_exactness_sampling(heis1):
    env = get_env(heis1)
    members = pfm.contact_complex_members(heis1)
    hmats = pfm.contact_complex_hmats(env, members)
    for term in (1, 2):
        rep = pfm.sample_exactness(env, members, hmats, term, 4)
        assert rep["failures"] == [], rep
        assert rep["kernel_dim_in_window"] > 0
    # with the incoming map zeroed no cocycle has a preimage, and each
    # kernel vector is named
    rep = pfm.sample_exactness(env, members, [{}] + hmats[1:], 1, 4)
    assert [f["kernel_vector"] for f in rep["failures"]] == list(
        range(rep["kernel_dim_in_window"]))


# the guards below raise ValueError, not AssertionError, so that they
# hold under python -O


def test_pseudoform_sum_checks_degrees():
    import pytest

    a = pfm.pform(1, {((0, 1, 0), (2,)): ONE})
    with pytest.raises(ValueError, match="degrees 1 and 0"):
        a + pfm.pform(0, {((0, 1, 0), ()): ONE})


def test_rumin_map_checks_degree(heis1):
    import pytest

    with pytest.raises(ValueError, match="degree 1, not 0"):
        pfm.rumin_map(get_env(heis1), pfm.pform(0, {((0, 1, 0), ()): ONE}))


def test_sample_exactness_checks_term(heis1):
    import pytest

    env = get_env(heis1)
    members = pfm.contact_complex_members(heis1)
    hmats = pfm.contact_complex_hmats(env, members)
    for term in (0, len(members) - 1):
        with pytest.raises(ValueError, match="not interior"):
            pfm.sample_exactness(env, members, hmats, term, 4)


def test_twist_validates_brackets(heis1):
    import pytest

    bad = [[[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ValueError):
        pfm.TwistData(heis1, bad)


def test_twist_of_divided_powers(pi2_heis1):
    # the action of a divided power is the matrix power over the factorial
    m = pi2_heis1.act_basis((0, 2, 0))
    assert m == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
    m = pi2_heis1.act_basis((0, 1, 0))
    assert m == ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))


def test_trivial_twist_is_identity_on_maps(heis1):
    env = get_env(heis1)
    members = pfm.contact_complex_members(heis1)
    hmats = pfm.contact_complex_hmats(env, members)
    triv = pfm.trivial_twist(heis1)
    for i, h in enumerate(hmats):
        assert pfm.twist_hmat(env, triv, h, members[i].dim,
                              members[i + 1].dim) == h


def test_twisted_complex_composes_to_zero(heis1, pi2_heis1):
    env = get_env(heis1)
    members = pfm.contact_complex_members(heis1)
    hmats = pfm.contact_complex_hmats(env, members)
    tw = [
        pfm.twist_hmat(env, pi2_heis1, hmats[i], members[i].dim,
                       members[i + 1].dim)
        for i in range(len(hmats))
    ]
    for i in range(len(tw) - 1):
        assert pfm.hmat_is_zero(pfm.compose_hmats(env, tw[i], tw[i + 1]))


def test_twist_functoriality(heis1, pi2_heis1):
    env = get_env(heis1)
    rng = random.Random(3)
    idx = ev.multi_indices(3, 2)

    def rand_hmat(n_src, n_tgt):
        out = {}
        for i in range(n_src):
            for j in range(n_tgt):
                if rng.random() < 0.7:
                    h = {rng.choice(idx): Fraction(rng.randint(-2, 2))}
                    h = {k: v for k, v in h.items() if v}
                    if h:
                        out[(i, j)] = h
        return out

    for _ in range(8):
        A, B = rand_hmat(2, 2), rand_hmat(2, 3)
        lhs = pfm.twist_hmat(env, pi2_heis1, pfm.compose_hmats(env, A, B), 2, 3)
        rhs = pfm.compose_hmats(
            env,
            pfm.twist_hmat(env, pi2_heis1, A, 2, 2),
            pfm.twist_hmat(env, pi2_heis1, B, 2, 3),
        )
        assert lhs == rhs


def test_character_twists(nonuni):
    tw = pfm.trace_character_twist(nonuni)
    assert tw.dim_carrier == 1
    assert tw.mats[2][0][0] == Fraction(-1)
    shifted = pfm.twist_times_character(tw, nonuni.trace_ad)
    assert shifted.mats[2][0][0] == Fraction(-2)


# ---------------------------------------------------------------------------
# references: the gather loops that `_d0_terms` and `w_star_direct`
# replaced, which visit every monomial T of the output degree


def _by_monomial(pf):
    by_s = {}
    for (I, S), c in pf.items():
        by_s.setdefault(S, {})[I] = c
    return by_s


def _d0_terms_reference(data, a):
    n = a.degree
    by_s = _by_monomial(a)
    out = {}
    for T in ex.monomials(data.dim, n + 1):
        for p in range(n + 1):
            for q in range(p + 1, n + 1):
                rest = tuple(x for t, x in enumerate(T) if t != p and t != q)
                sgn_pq = -ONE if (p + q) % 2 else ONE
                for k, cv in data.bracket_basis(T[p], T[q]):
                    ins = insert_index(k, rest)
                    if ins is None:
                        continue
                    for I, c in by_s.get(ins[1], {}).items():
                        la.vec_put(out, (I, T), sgn_pq * cv * ins[0] * c)
    return out


def _w_star_direct_reference(env, f_dict, a_vec, pf):
    data = env.data
    n = pf.degree
    by_s = _by_monomial(pf)
    out = {}
    a_elt = ev.from_vector(a_vec)
    for T in ex.monomials(data.dim, n):
        for I, c in by_s.get(T, {}).items():
            ga = env.mul({I: ONE}, a_elt)
            for F, cf in f_dict.items():
                for K, ck in ga.items():
                    la.vec_put(out, (F, K, T), -c * cf * ck)
        for p in range(n):
            rest = tuple(x for t, x in enumerate(T) if t != p)
            sgn = -ONE if (p + 1) % 2 else ONE
            fap = env.mul(f_dict, ev.generator(data.dim, T[p]))
            br = data.bracket_vec(a_vec, data.basis_vector(T[p]))
            for m in range(data.dim):
                ins = insert_index(m, rest)
                if ins is None:
                    continue
                s, full = ins
                for I, c in by_s.get(full, {}).items():
                    for F, cf in fap.items():
                        la.vec_put(out, (F, I, T), sgn * a_vec[m] * s * c * cf)
                    for F, cf in f_dict.items():
                        la.vec_put(out, (F, I, T), sgn * br[m] * s * c * cf)
    return out


def test_d0_terms_match_gather_reference(reference_algebras):
    rng = random.Random(53)
    for name, data in reference_algebras.items():
        for n in range(data.dim + 1):
            for _ in range(3):
                a = rand_pf(rng, data.dim, n, max_plain=3, terms=4)
                assert pfm._d0_terms(data, a) == \
                    _d0_terms_reference(data, a), (name, a)


def test_w_star_direct_matches_gather_reference(reference_algebras):
    # non-constant coefficients on both sides: f is a random element and
    # the pseudoform's H coefficients have degree up to 2
    rng = random.Random(59)
    for name, data in reference_algebras.items():
        env = get_env(data)
        idx = ev.multi_indices(data.dim, 2)
        for n in range(data.dim + 1):
            a = rand_pf(rng, data.dim, n, max_plain=2, terms=3)
            f = {rng.choice(idx): Fraction(rng.randint(1, 3)),
                 rng.choice(idx): Fraction(rng.randint(-3, -1))}
            a_vec = tuple(Fraction(rng.randint(-2, 2))
                          for _ in range(data.dim))
            assert pfm.w_star_direct(env, f, a_vec, a) == \
                _w_star_direct_reference(env, f, a_vec, a), (name, n)


def test_wedge_const_matches_coefficientwise_wedge(reference_algebras):
    rng = random.Random(61)
    for name, data in reference_algebras.items():
        env = get_env(data)
        for n in range(data.dim + 1):
            a = rand_pf(rng, data.dim, n, terms=4)
            for const in (ex.theta_form(data), ex.omega_form(data)):
                want = {}
                for I in pfm.pf_h_support(a):
                    comp = pfm.pf_component(a, I)
                    for S, c in ex.wedge(const, comp).items():
                        want[(I, S)] = c
                got = pfm.wedge_const(env, const, a)
                assert got == pfm.pform(n + const.degree, want), (name, n)
