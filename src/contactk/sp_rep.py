"""The symplectic algebra of the barred space and its representations.

All matrices here act on coordinates with respect to the normalized frame.
Matrices "on the barred space" are 2N x 2N and indexed by basis vectors
1..2N shifted down by one; gl(d)-matrices are full (2N+1) x (2N+1).

Generators are presented through the raised-index matrices
  e^{ij} = sum_k r^{ik} e_k^j,   f^{ij} = -(e^{ij} + e^{ji})/2 = f^{ji},
which form a basis of the symplectic algebra for 1 <= i <= j <= 2N.  The
Casimir element is -sum_{ij} f_ij f^{ij} (indices lowered with omega); on
the fundamental representation realized inside barred forms it acts by
the scalar n(2N+2-n)/2.

Each raised-index formula has one builder here: `e_raised_full` for
e^{ij} (whose barred block `build_sp` keeps), `ad_dual` for ad d^k and
`lower_two` for lowering both indices with omega.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import exterior, linalg
from .linalg import LinearSystem

ZERO = Fraction(0)
ONE = Fraction(1)


def _bar(mat_full):
    return tuple(tuple(row[1:]) for row in mat_full[1:])


def embed_bar(data, mat_bar):
    """Embed a barred matrix into gl(d) with zero row and column 0."""
    dim = data.dim
    full = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim - 1):
        for j in range(dim - 1):
            full[i + 1][j + 1] = mat_bar[i][j]
    return tuple(tuple(row) for row in full)


@dataclass(frozen=True)
class SpGenerators:
    data: object
    e_raised: dict  # (i, j) -> barred matrix of e^{ij}, i, j in 1..2N
    f_raised: dict  # (i, j) -> barred matrix of f^{ij}
    i_prime: tuple  # gl(d) matrix 2 e_0^0 + sum e_i^i

    def f(self, i, j):
        return self.f_raised[(i, j) if i <= j else (j, i)]

    def f_lower_one(self, i, j):
        """f_i^j = sum_a omega_{ia} f^{aj}."""
        dd = self.data
        return linalg.mat_comb(dd.dim - 1, [
            (dd.omega[i][a], self.f(a, j)) for a in range(1, dd.dim)])

    def f_lower_two(self, i, j):
        """f_ij = sum_{ab} omega_{ia} omega_{jb} f^{ab}."""
        return lower_two(self.data, self.data.dim - 1, self.f, i, j)

    def sl2_triple(self, i):
        """(h_i, e_i, f_i) = (-2 f_i^i, f_ii, -f^{ii})."""
        return (
            linalg.mat_scale(self.f_lower_one(i, i), -2),
            self.f_lower_two(i, i),
            linalg.mat_scale(self.f(i, i), -1),
        )


def elementary_bar(dim, k, j):
    """e_k^j on the barred space, basis indices k, j in 1..2N."""
    return linalg.elementary(dim - 1, k - 1, j - 1)


def e_raised_full(data, i, j):
    """e^{ij} = sum_k r^{ik} e_k^j as a full gl(d) matrix, for 1 <= i and
    0 <= j: column j holds row i of r, whose entry 0 is zero."""
    return tuple(tuple(r if c == j else ZERO for c in range(data.dim))
                 for r in data.rmat[i])


def lower_two(data, n, f, i, j):
    """sum_{ab} omega_{ia} omega_{jb} f(a, b): the indices of f^{ab}
    lowered with omega, for f(a, b) an n x n matrix of f^{ab}."""
    idx = range(1, data.dim)
    wi, wj = data.omega[i], data.omega[j]
    return linalg.mat_comb(n, [(wi[a] * wj[b], f(a, b))
                               for a in idx if wi[a] for b in idx if wj[b]])


def build_sp(data):
    dim = data.dim
    e_raised = {(i, j): _bar(e_raised_full(data, i, j))
                for i in range(1, dim) for j in range(1, dim)}
    f_raised = {}
    for i in range(1, dim):
        for j in range(i, dim):
            f_raised[(i, j)] = linalg.mat_scale(
                linalg.mat_add(e_raised[(i, j)], e_raised[(j, i)]),
                Fraction(-1, 2),
            )
    i_prime = [[ZERO] * dim for _ in range(dim)]
    i_prime[0][0] = Fraction(2)
    for i in range(1, dim):
        i_prime[i][i] = ONE
    return SpGenerators(
        data=data,
        e_raised=e_raised,
        f_raised=f_raised,
        i_prime=tuple(tuple(row) for row in i_prime),
    )


def sp_gens_for(data):
    """The symplectic generators of a datum, built once per datum."""
    return data.derived("sp_gens", build_sp)


def is_symplectic_matrix(data, mat_bar):
    """omega(Au ^ v) = -omega(u ^ Av) on the barred space."""
    dim = data.dim
    for u in range(1, dim):
        for v in range(1, dim):
            left = sum(
                mat_bar[m - 1][u - 1] * data.omega[m][v] for m in range(1, dim)
            )
            right = sum(
                data.omega[u][m] * mat_bar[m - 1][v - 1] for m in range(1, dim)
            )
            if left != -right:
                return False
    return True


def sp_dimension(data):
    n = data.N
    return n * (2 * n + 1)


def f_system(data, sp_gens):
    """The f^{ij} as the columns of one LinearSystem over the barred matrix
    entries, built once per datum."""

    def build(data):
        sys = LinearSystem()
        for (i, j), f in sp_gens.f_raised.items():
            sys.add_column(
                (i, j),
                {
                    (r, c): f[r][c]
                    for r in range(data.dim - 1)
                    for c in range(data.dim - 1)
                    if f[r][c]
                },
            )
        return sys

    return data.derived("f_system", build)


def sp_coordinates(data, sp_gens, mat_bar):
    """Coordinates of a symplectic matrix in the f^{ij} basis."""
    sys = f_system(data, sp_gens)
    target = {
        (r, c): mat_bar[r][c]
        for r in range(data.dim - 1)
        for c in range(data.dim - 1)
        if mat_bar[r][c]
    }
    sol = sys.solve(target)
    if sol is None:
        raise ValueError("matrix is not in the span of the f generators")
    return sol


# ---------------------------------------------------------------------------
# representations


@dataclass(frozen=True)
class SpRep:
    """Matrices of the f^{ij} on a finite-dimensional carrier."""

    data: object
    dim: int
    fmats: tuple  # tuple of ((i, j), matrix) pairs, i <= j

    def f(self, i, j):
        if i > j:
            i, j = j, i
        for key, m in self.fmats:
            if key == (i, j):
                return m
        raise KeyError((i, j))


def rep_from_action(data, sp_gens, carrier_dim, act):
    """Build an SpRep from a closure mapping a barred matrix to a carrier
    matrix; used for form realizations and tensor constructions."""
    fmats = []
    for (i, j), f in sorted(sp_gens.f_raised.items()):
        fmats.append(((i, j), act(f)))
    return SpRep(data=data, dim=carrier_dim, fmats=tuple(fmats))


def trivial_rep(data, sp_gens):
    return rep_from_action(data, sp_gens, 1, lambda f: ((ZERO,),))


def sym_square_rep(data, sp_gens):
    """Symmetric square of the vector representation; for the symplectic
    algebra this is the adjoint, the irreducible with doubled first
    fundamental weight."""
    n2 = data.dim - 1
    pairs = [(a, b) for a in range(n2) for b in range(a, n2)]
    index = {p: k for k, p in enumerate(pairs)}

    def act(f):
        mat = [[ZERO] * len(pairs) for _ in range(len(pairs))]
        for (a, b), col in index.items():
            # f.(v_a v_b) = (f v_a) v_b + v_a (f v_b)
            for m in range(n2):
                c = f[m][a]
                if c:
                    key = (m, b) if m <= b else (b, m)
                    mat[index[key]][col] += c
                c = f[m][b]
                if c:
                    key = (a, m) if a <= m else (m, a)
                    mat[index[key]][col] += c
        return tuple(tuple(row) for row in mat)

    return rep_from_action(data, sp_gens, len(pairs), act)


def fundamental_rep(data, sp_gens, n):
    """R(pi_n) realized as the primitive subspace Kbar^{2N-n} of barred
    (2N-n)-forms, with the form action of the symplectic algebra."""
    nn = data.N
    if not 0 <= n <= nn:
        raise BadWeightIndex(f"fundamental weight index {n} outside 0..{nn}")
    if n == 0:
        return trivial_rep(data, sp_gens)
    degree = 2 * nn - n
    basis = exterior.compute_Kbar(data, degree)
    want = fundamental_dim(nn, n)
    if len(basis) != want:  # pragma: no cover - dimension is forced
        raise ArithmeticError("primitive subspace has unexpected dimension")
    sys = LinearSystem()
    for k, f in enumerate(basis):
        sys.add_column(k, f.as_dict())
    return form_rep(data, sp_gens, basis, lambda f: sys.solve(f.as_dict()))


def form_rep(data, sp_gens, basis, coords):
    """The symplectic algebra acting by the form action on the span of the
    constant forms `basis`: column k of each matrix is coords(f . basis[k]),
    a dict index -> coefficient, or None if the image leaves the span."""

    def act(fbar):
        full = embed_bar(data, fbar)
        cols = []
        for f in basis:
            sol = coords(exterior.gl_act(full, f))
            if sol is None:  # pragma: no cover
                raise ArithmeticError("action does not preserve the subspace")
            cols.append(sol)
        return tuple(tuple(col.get(r, ZERO) for col in cols)
                     for r in range(len(basis)))

    return rep_from_action(data, sp_gens, len(basis), act)


class BadWeightIndex(ValueError):
    """Fundamental weight index outside 0..N."""


def fundamental_dim(nn, n):
    low = math.comb(2 * nn, n - 2) if n >= 2 else 0
    return math.comb(2 * nn, n) - low


def casimir_apply(data, sp_gens, rep):
    """-sum_{ij} rho(f_ij) rho(f^{ij}) on the carrier of rep."""
    idx = range(1, data.dim)
    return linalg.mat_comb(rep.dim, [
        (-ONE, linalg.mat_mul(lower_two(data, rep.dim, rep.f, i, j),
                              rep.f(i, j)))
        for i in idx for j in idx])


def scalar_matrix_value(mat):
    """The scalar if mat is a scalar matrix, else None."""
    n = len(mat)
    if n == 0:
        return ZERO
    c = mat[0][0]
    for i in range(n):
        for j in range(n):
            if mat[i][j] != (c if i == j else 0):
                return None
    return c


def ad_dual(data, k):
    """ad d^k = sum_m r^{km} ad e_m on the whole algebra, 1 <= k <= 2N."""
    return linalg.mat_comb(data.dim, [
        (r, data.ad_matrix(m)) for m, r in enumerate(data.rmat[k])])


def ad_sp(data, k):
    """Projection to the symplectic algebra of the adjoint of a dual basis
    vector: restrict ad d^k to the barred space, kill the s-component, and
    add the structure-constant correction; for k = 0 this is just ad e_0
    restricted to the barred space."""
    dim = data.dim
    if k == 0:
        return _bar(data.ad_matrix(0))
    e_raised = sp_gens_for(data).e_raised
    return linalg.mat_comb(dim - 1, [(ONE, _bar(ad_dual(data, k)))] + [
        (Fraction(data.c[i][j][k], 2), e_raised[(i, j)])
        for i in range(1, dim) for j in range(1, dim)])


def cryptic_relation_check(rep, a, b, c, d):
    """True iff the full permutation-symmetrized product of two f's in the
    four given indices annihilates the carrier.

    As f^{ij} = f^{ji}, the sum over the 24 orderings is four times the
    sum of x y + y x over the three pairings {ab|cd}, {ac|bd}, {ad|bc}."""
    pairs = ((rep.f(a, b), rep.f(c, d)), (rep.f(a, c), rep.f(b, d)),
             (rep.f(a, d), rep.f(b, c)))
    return linalg.is_zero_matrix(linalg.mat_comb(rep.dim, [
        (ONE, linalg.mat_mul(u, v))
        for x, y in pairs for u, v in ((x, y), (y, x))]))


def find_cryptic_witness(rep):
    """A quadruple violating the symmetrized relation, or None."""
    n2 = rep.data.dim - 1
    for quad in itertools.combinations_with_replacement(range(1, n2 + 1), 4):
        if not cryptic_relation_check(rep, *quad):
            return quad
    return None


# ---------------------------------------------------------------------------
# graded nilpotency certificate (commutative polynomial identity)


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            linalg.vec_put(out, tuple(sorted(m1 + m2)), c1 * c2)
    return out


def graded_nilpotency_certificate():
    """In the associated graded (commutative) algebra, the symmetrized
    relations force g_aa^2 = 0 and then g_ab^4 = 0: verify the cofactor
    identity 256 g_ab^4 = p_aabb^2 - 16 p_aabb g_aa g_bb + (8/3) p_aaaa
    g_bb^2, where p_xyzw is the symmetrized quadratic in commuting
    variables g_ij = g_ji."""

    def g(i, j):
        return {(tuple(sorted((i, j))),): ONE}

    def p(quad):
        acc = {}
        for perm in itertools.permutations(quad):
            linalg.vec_iadd(
                acc, _poly_mul(g(perm[0], perm[1]), g(perm[2], perm[3])))
        return acc

    a, b = 0, 1
    p_aaaa = p((a, a, a, a))
    p_aabb = p((a, a, b, b))
    gaa, gbb, gab = g(a, a), g(b, b), g(a, b)
    lhs = _poly_mul(_poly_mul(gab, gab), _poly_mul(gab, gab))
    lhs = {m: 256 * c for m, c in lhs.items()}
    rhs = _poly_mul(p_aabb, p_aabb)
    linalg.vec_iadd(
        rhs, _poly_mul(p_aabb, _poly_mul(gaa, gbb)), Fraction(-16))
    linalg.vec_iadd(
        rhs, _poly_mul(p_aaaa, _poly_mul(gbb, gbb)), Fraction(8, 3))
    return lhs == rhs
