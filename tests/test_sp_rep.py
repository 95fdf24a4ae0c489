import itertools
from fractions import Fraction

import pytest

from contactk import contact_lie as cl
from contactk import exterior as ex
from contactk import linalg as la
from contactk import pseudoalgebra as pa
from contactk import pseudoforms as pfm
from contactk import sp_rep as sp

ZERO = Fraction(0)
ONE = Fraction(1)


def test_generator_count_and_membership(algebras):
    for data in algebras.values():
        gens = sp.build_sp(data)
        sys = la.LinearSystem()
        for (i, j), f in gens.f_raised.items():
            sys.add_column(
                (i, j),
                {(r, c): f[r][c]
                 for r in range(data.dim - 1)
                 for c in range(data.dim - 1) if f[r][c]},
            )
        assert sys.image_rank() == sp.sp_dimension(data)
        assert all(sp.is_symplectic_matrix(data, f)
                   for f in gens.f_raised.values())


def test_bracket_tables(small_algebras):
    for data in small_algebras.values():
        gens = sp.build_sp(data)
        dim = data.dim
        for (i, j) in itertools.product(range(1, dim), repeat=2):
            for (k, l) in itertools.product(range(1, dim), repeat=2):
                lhs = la.commutator(gens.e_raised[(i, j)],
                                    gens.e_raised[(k, l)])
                rhs = la.mat_sub(
                    la.mat_scale(gens.e_raised[(i, l)], data.rmat[k][j]),
                    la.mat_scale(gens.e_raised[(k, j)], data.rmat[i][l]),
                )
                assert lhs == rhs
                lhs = la.commutator(gens.f(i, j), gens.f(k, l))
                rhs = la.zeros(dim - 1)
                for rr, ff in (
                    (data.rmat[i][k], gens.f(j, l)),
                    (data.rmat[i][l], gens.f(j, k)),
                    (data.rmat[j][k], gens.f(i, l)),
                    (data.rmat[j][l], gens.f(i, k)),
                ):
                    rhs = la.mat_add(rhs, la.mat_scale(ff, Fraction(rr, 2)))
                assert lhs == rhs


def test_trace_of_raised_generators(heis2):
    gens = sp.build_sp(heis2)
    for (i, j), e in gens.e_raised.items():
        assert la.trace(e) == heis2.rmat[i][j]


def test_sl2_triples(algebras):
    for data in algebras.values():
        gens = sp.build_sp(data)
        for i in range(1, data.dim):
            h_, e_, f_ = gens.sl2_triple(i)
            assert la.commutator(h_, e_) == la.mat_scale(e_, 2)
            assert la.commutator(h_, f_) == la.mat_scale(f_, -2)
            assert la.commutator(e_, f_) == h_
            assert la.commutator(gens.f_lower_one(i, i), gens.f(i, i)) \
                == gens.f(i, i)


def test_trace_form(heis1):
    gens = sp.build_sp(heis1)
    for i in (1, 2):
        for j in (1, 2):
            fij = gens.f_lower_two(i, j)
            for k in (1, 2):
                for l in (1, 2):
                    t = la.trace(la.mat_mul(fij, gens.f(k, l)))
                    want = Fraction(-1, 2) * (
                        (1 if i == l and j == k else 0)
                        + (1 if i == k and j == l else 0)
                    )
                    assert t == want


def test_cartan_elements_in_symplectic_frame(heis2):
    ds = cl.with_symplectic_basis(heis2)
    gens = sp.build_sp(ds)
    for i in range(1, ds.N + 1):
        h_, _, _ = gens.sl2_triple(i)
        assert h_ == la.mat_sub(
            sp.elementary_bar(ds.dim, i, i),
            sp.elementary_bar(ds.dim, ds.N + i, ds.N + i),
        )


def test_fundamental_dimensions(algebras):
    for data in algebras.values():
        gens = sp.build_sp(data)
        for n in range(data.N + 1):
            rep = sp.fundamental_rep(data, gens, n)
            assert rep.dim == sp.fundamental_dim(data.N, n)
    assert sp.fundamental_dim(2, 2) == 5
    assert sp.fundamental_dim(1, 1) == 2
    assert sp.fundamental_dim(2, 0) == 1


def test_bad_weight_index(heis1):
    gens = sp.build_sp(heis1)
    with pytest.raises(sp.BadWeightIndex):
        sp.fundamental_rep(heis1, gens, 2)
    with pytest.raises(sp.BadWeightIndex):
        sp.fundamental_rep(heis1, gens, -1)


def test_casimir_eigenvalues(algebras):
    for data in algebras.values():
        gens = sp.build_sp(data)
        for n in range(data.N + 1):
            rep = sp.fundamental_rep(data, gens, n)
            cas = sp.casimir_apply(data, gens, rep)
            assert sp.scalar_matrix_value(cas) == Fraction(
                n * (2 * data.N + 2 - n), 2
            )
            for (_k, fm) in rep.fmats:
                assert la.commutator(cas, fm) == la.zeros(rep.dim)
    # N = 4, where pi:4 has dimension 42: the scalars p(2N+2-p)/2
    data = cl.heisenberg(4)
    gens = sp.build_sp(data)
    for n, want in enumerate((0, Fraction(9, 2), 8, Fraction(21, 2), 12)):
        rep = sp.fundamental_rep(data, gens, n)
        cas = sp.casimir_apply(data, gens, rep)
        assert sp.scalar_matrix_value(cas) == want


def test_casimir_zero_on_trivial(heis1):
    gens = sp.build_sp(heis1)
    rep = sp.trivial_rep(heis1, gens)
    assert sp.casimir_apply(heis1, gens, rep) == ((Fraction(0),),)


def test_projected_adjoint(algebras):
    for data in algebras.values():
        for k in range(data.dim):
            m = sp.ad_sp(data, k)
            assert sp.is_symplectic_matrix(data, m)
            assert la.trace(m) == 0
        assert sp.ad_sp(data, 0) == tuple(
            tuple(r[1:]) for r in data.ad_matrix(0)[1:]
        )


def test_projected_adjoint_examples(sl2, heis1):
    # diagonal action of the distinguished direction for the simple algebra
    assert sp.ad_sp(sl2, 0) == ((Fraction(-2), Fraction(0)),
                                (Fraction(0), Fraction(2)))
    # for the Heisenberg algebra the barred adjoint vanishes, so only the
    # projected correction remains, and it projects to zero
    for k in (1, 2):
        assert sp.ad_sp(heis1, k) == la.zeros(2)


def test_symmetrized_relation(algebras):
    for data in algebras.values():
        gens = sp.build_sp(data)
        for p in range(1, data.N + 1):
            rep = sp.fundamental_rep(data, gens, p)
            assert sp.find_cryptic_witness(rep) is None
        assert sp.find_cryptic_witness(sp.trivial_rep(data, gens)) is None
        witness = sp.find_cryptic_witness(sp.sym_square_rep(data, gens))
        assert witness is not None
        assert not sp.cryptic_relation_check(
            sp.sym_square_rep(data, gens), *witness
        )


def test_sym_square_dimension(heis2):
    gens = sp.build_sp(heis2)
    rep = sp.sym_square_rep(heis2, gens)
    assert rep.dim == 10


def test_graded_nilpotency_certificate():
    assert sp.graded_nilpotency_certificate()


def test_sp_coordinates_roundtrip(heis2):
    gens = sp.build_sp(heis2)
    mat = la.mat_add(gens.f(1, 3), la.mat_scale(gens.f(2, 2), Fraction(3, 2)))
    coords = sp.sp_coordinates(heis2, gens, mat)
    acc = la.zeros(heis2.dim - 1)
    for (i, j), c in coords.items():
        acc = la.mat_add(acc, la.mat_scale(gens.f(i, j), c))
    assert acc == mat


# ---------------------------------------------------------------------------
# entry-by-entry locks on a dense datum


def _sum(n, terms):
    """sum of c * m over (c, m), folded with the plain helpers."""
    acc = la.zeros(n)
    for c, m in terms:
        acc = la.mat_add(acc, la.mat_scale(m, c))
    return acc


def test_raised_generators_entrywise(heis2_rebased):
    d = heis2_rebased
    gens = sp.build_sp(d)
    n2 = d.dim - 1
    r = d.rmat
    for i in range(1, d.dim):
        for j in range(1, d.dim):
            # e^{ij} = sum_k r^{ik} e_k^j: column j holds row i of r
            want = tuple(tuple(r[i][a + 1] if b + 1 == j else 0
                               for b in range(n2)) for a in range(n2))
            assert gens.e_raised[(i, j)] == want
            # f^{ij} = -(e^{ij} + e^{ji}) / 2
            want = tuple(tuple(
                -(r[i][a + 1] * (b + 1 == j) + r[j][a + 1] * (b + 1 == i)) / 2
                for b in range(n2)) for a in range(n2))
            assert gens.f(i, j) == want


def test_lowered_generators_entrywise(heis2_rebased):
    d = heis2_rebased
    gens = sp.build_sp(d)
    n2 = d.dim - 1
    w = d.omega
    for i in range(1, d.dim):
        for j in range(1, d.dim):
            # f_ij = sum_{ab} omega_ia omega_jb f^{ab}
            want = tuple(tuple(
                sum(w[i][a] * w[j][b] * gens.f(a, b)[x][y]
                    for a in range(1, d.dim) for b in range(1, d.dim))
                for y in range(n2)) for x in range(n2))
            assert gens.f_lower_two(i, j) == want


def test_projected_adjoint_entrywise(heis2_rebased):
    d = heis2_rebased
    r, c = d.rmat, d.c
    assert sp.ad_sp(d, 0) == tuple(
        tuple(c[0][y][x] for y in range(1, d.dim)) for x in range(1, d.dim))
    for k in range(1, d.dim):
        # sum_m r^{km} ad e_m + (1/2) sum_{ij} c_ij^k e^{ij}, barred
        want = tuple(tuple(
            sum(r[k][m] * c[m][y][x] for m in range(1, d.dim))
            + sum(c[i][y][k] * r[i][x] for i in range(1, d.dim)) / 2
            for y in range(1, d.dim)) for x in range(1, d.dim))
        assert sp.ad_sp(d, k) == want


def test_casimir_entrywise(heis2_rebased):
    d = heis2_rebased
    gens = sp.build_sp(d)
    w = d.omega
    idx = range(1, d.dim)
    for n in range(d.N + 1):
        rep = sp.fundamental_rep(d, gens, n)
        want = la.zeros(rep.dim)
        for i in idx:
            for j in idx:
                low = _sum(rep.dim, [(w[i][a] * w[j][b], rep.f(a, b))
                                     for a in idx for b in idx])
                want = la.mat_sub(want, la.mat_mul(low, rep.f(i, j)))
        assert sp.casimir_apply(d, gens, rep) == want
        assert sp.scalar_matrix_value(want) == Fraction(
            n * (2 * d.N + 2 - n), 2)


def test_tau_on_dense_datum(heis2_rebased):
    from contactk import pseudoalgebra as palg

    assert palg.tau_check(heis2_rebased)


def _cryptic_by_permutations(rep, product, a, b, c, d):
    """The reference: the sum over all 24 orderings of the four indices
    of f^{p0 p1} f^{p2 p3}, with `product` memoizing those products."""
    acc = la.zeros(rep.dim)
    for p in itertools.permutations((a, b, c, d)):
        acc = la.mat_add(acc, product(p))
    return la.is_zero_matrix(acc)


def test_cryptic_check_matches_permutation_sum(heis2, heis2_rebased):
    for data in (heis2, heis2_rebased):
        gens = sp.build_sp(data)
        reps = [sp.trivial_rep(data, gens), sp.sym_square_rep(data, gens)]
        reps += [sp.fundamental_rep(data, gens, p)
                 for p in range(1, data.N + 1)]
        seen_failure = False
        for rep in reps:
            memo = {}

            def product(p):
                key = (tuple(sorted(p[:2])), tuple(sorted(p[2:])))
                if key not in memo:
                    memo[key] = la.mat_mul(rep.f(*key[0]), rep.f(*key[1]))
                return memo[key]

            for quad in itertools.combinations_with_replacement(
                    range(1, data.dim), 4):
                want = _cryptic_by_permutations(rep, product, *quad)
                assert sp.cryptic_relation_check(rep, *quad) == want
                seen_failure |= not want
        assert seen_failure


def _per_column_fmats(data, basis, solve):
    """The f^{ij} acting on the span of the constant forms `basis`, one
    solve per basis column, as the fundamental modules and the complex
    members each computed it before they shared `form_rep`."""
    gens = sp.sp_gens_for(data)
    n = len(basis)
    fmats = []
    for key, f in sorted(gens.f_raised.items()):
        full = sp.embed_bar(data, f)
        cols = [solve(ex.gl_act(full, b)) for b in basis]
        fmats.append((key, tuple(tuple(cols[c].get(r, ZERO) for c in range(n))
                                 for r in range(n))))
    return tuple(fmats)


@pytest.mark.parametrize("name", ["heis2", "heis2_rebased"])
def test_form_rep_matches_per_column_solve(name, request):
    data = request.getfixturevalue(name)
    gens = sp.sp_gens_for(data)
    for n in range(1, data.N + 1):
        basis = ex.compute_Kbar(data, 2 * data.N - n)
        sys = la.LinearSystem()
        for k, f in enumerate(basis):
            sys.add_column(k, f.as_dict())
        want = _per_column_fmats(data, basis,
                                 lambda f: sys.solve(f.as_dict()))
        assert sp.fundamental_rep(data, gens, n).fmats == want, n
    for mem in pfm.contact_complex_members(data):
        want = _per_column_fmats(data, mem.basis, mem.form_coords)
        got = pa.member_tensor_spec(data, mem).sprep
        assert (got.dim, got.fmats) == (mem.dim, want), mem.degree
