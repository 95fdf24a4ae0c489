"""Exact PBW arithmetic in the universal enveloping algebra.

Elements are sparse dicts mapping multi-indices I = (i_0, ..., i_{2N}) to
rationals in the divided-power basis e^(I) = e_0^{i_0} ... e_{2N}^{i_{2N}}
/ i_0! ... i_{2N}!.  With the factorials baked in, the coproduct is the
binomial-free splitting D(e^(I)) = sum_{J+K=I} e^(J) (x) e^(K) and the
straightening recursion carries small integer coefficients.

Each instance keeps four memos, all per-instance dicts used with
get-or-compute semantics, so concurrent readers at worst recompute an
entry: the straightening of a generator times a basis element
(`_gen_mul`), products of basis elements (`_mono_mul`), antipodes of basis
elements (`_antipode`), and the normal-form image of a unit term
(e^(F) (x) e^(G)) (x)_H e^(J) (`_image`), which `left_image` keeps and
the right normal form reads with the two legs swapped.

Two gradings matter: the plain degree |I| = sum(I) and the contact degree
|I|' = 2 i_0 + i_1 + ... + i_{2N}, where the distinguished direction s
counts twice.

The truncated dual X keeps coefficients of the functionals x_I with
<x_I, e^(J)> = delta_I^J up to a contact-degree bound; products are
monomial (x_J x_K = x_{J+K}) and the two actions of the algebra on X are
computed through the pairing.  Acting by a generator lowers the usable
bound (by 2 for the direction s, by 1 otherwise); TruncationOverflow
signals that the bound would drop below zero.
"""

import itertools
import math
from fractions import Fraction

from .linalg import vec_add, vec_iadd, vec_put, vec_scale, vec_sub

ZERO = Fraction(0)
ONE = Fraction(1)


class TruncationOverflow(ValueError):
    """A dual-space operation fell out of the representable truncation."""


def unit_index(dim):
    return (0,) * dim


def eps(dim, i):
    return tuple(1 if j == i else 0 for j in range(dim))


def add_index(I, J):
    return tuple(a + b for a, b in zip(I, J))


def sub_index(I, J):
    return tuple(a - b for a, b in zip(I, J))


def plain_degree(I):
    return sum(I)


def contact_degree(I):
    """2 i_0 + i_1 + ... + i_{2N}."""
    return 2 * I[0] + sum(I[1:])


def multi_indices(dim, max_plain):
    """All multi-indices with plain degree <= max_plain."""
    out = []
    for total in range(max_plain + 1):
        out.extend(_indices_of_degree(dim, total))
    return out


def _indices_of_degree(dim, total):
    if dim == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        for rest in _indices_of_degree(dim - 1, total - head):
            out.append((head,) + rest)
    return out


def contact_indices(dim, max_contact):
    """All multi-indices with contact degree <= max_contact."""
    out = []
    for i0 in range(max_contact // 2 + 1):
        for rest_total in range(max_contact - 2 * i0 + 1):
            for rest in _indices_of_degree(dim - 1, rest_total):
                out.append((i0,) + rest)
    return sorted(out)


def unit(dim):
    return {unit_index(dim): ONE}


def generator(dim, i):
    I = [0] * dim
    I[i] = 1
    return {tuple(I): ONE}


def from_vector(vec):
    """Degree-1 element from a coordinate vector."""
    dim = len(vec)
    out = {}
    for i, c in enumerate(vec):
        if c:
            I = [0] * dim
            I[i] = 1
            out[tuple(I)] = Fraction(c)
    return out


class Enveloping:
    """PBW arithmetic bound to one contact datum."""

    def __init__(self, data):
        self.data = data
        self.dim = data.dim
        self._gen_mul = {}
        self._mono_mul = {}
        self._antipode = {}
        self._image = {}

    # -- multiplication ----------------------------------------------------

    def gen_mul(self, j, I):
        """e_j * e^(I) in the divided-power basis, as a sparse dict."""
        key = (j, I)
        hit = self._gen_mul.get(key)
        if hit is not None:
            return hit
        support = [k for k, v in enumerate(I) if v]
        if not support or j <= support[0]:
            J = list(I)
            J[j] += 1
            out = {tuple(J): Fraction(J[j])}
        else:
            k = support[0]
            Iprime = list(I)
            Iprime[k] -= 1
            Iprime = tuple(Iprime)
            out = {}
            # e_j e_k = e_k e_j + [e_j, e_k]
            for M, c in self.gen_mul(j, Iprime).items():
                vec_iadd(out, self.gen_mul(k, M), c)
            for l, cv in self.data.bracket_basis(j, k):
                vec_iadd(out, self.gen_mul(l, Iprime), cv)
            out = vec_scale(out, Fraction(1, I[k]))
        self._gen_mul[key] = out
        return out

    def mono_mul(self, I, J):
        """e^(I) * e^(J)."""
        hit = self._mono_mul.get((I, J))
        if hit is not None:
            return hit
        out = self._powers_times(I, range(self.dim - 1, -1, -1), {J: ONE})
        self._mono_mul[(I, J)] = out
        return out

    def _powers_times(self, I, order, acc, scale=ONE):
        """scale times acc multiplied on the left by e_g^{I[g]} / I[g]!,
        one g at a time in the given order."""
        for g in order:
            for _ in range(I[g]):
                nxt = {}
                for M, c in acc.items():
                    vec_iadd(nxt, self.gen_mul(g, M), c)
                acc = nxt
            if I[g]:
                scale *= Fraction(1, math.factorial(I[g]))
        return vec_scale(acc, scale)

    def mul(self, u, v):
        out = {}
        for I, a in u.items():
            for J, b in v.items():
                vec_iadd(out, self.mono_mul(I, J), a * b)
        return out

    def mul_many(self, *els):
        acc = unit(self.dim)
        for e in els:
            acc = self.mul(acc, e)
        return acc

    def bracket(self, u, v):
        return vec_sub(self.mul(u, v), self.mul(v, u))

    def tensor_mul(self, x, y):
        """The product in H (x) H of two dicts (I, J) -> coefficient:
        (e^(A) (x) e^(B)) (e^(C) (x) e^(D)) = e^(A) e^(C) (x) e^(B) e^(D)."""
        out = {}
        for (A, B), cx in x.items():
            for (C, D), cy in y.items():
                right = self.mono_mul(B, D).items()
                for P, cp in self.mono_mul(A, C).items():
                    for Q, cq in right:
                        vec_put(out, (P, Q), cx * cy * cp * cq)
        return out

    # -- Hopf structure ----------------------------------------------------

    def counit(self, u):
        return u.get(unit_index(self.dim), ZERO)

    def coproduct(self, u):
        """dict (J, K) -> coefficient with J + K = I over the support."""
        out = {}
        for I, c in u.items():
            for J in itertools.product(*(range(i + 1) for i in I)):
                K = sub_index(I, J)
                key = (tuple(J), K)
                w = out.get(key, ZERO) + c
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return out

    def antipode_basis(self, I):
        hit = self._antipode.get(I)
        if hit is not None:
            return hit
        # S(e^(I)) = (-1)^{|I|} reversed product / I!
        sign = -ONE if plain_degree(I) % 2 else ONE
        out = self._powers_times(I, range(self.dim), unit(self.dim), sign)
        self._antipode[I] = out
        return out

    # -- normal forms of (H (x) H) (x)_H V ---------------------------------

    def left_image(self, F, G, J):
        """(e^(F) (x) e^(G)) (x)_H e^(J) in left-normal form: the sum over
        D(e^(G)) = sum e^(G1) (x) e^(G2) of (e^(F) S(e^(G1)) (x) 1) (x)_H
        e^(G2) e^(J), as a tuple of ((F', J'), coefficient) pairs without
        zeros.  It depends only on the Hopf structure, so it is computed
        once per key."""
        key = (F, G, J)
        hit = self._image.get(key)
        if hit is not None:
            return hit
        acc = {}
        for G1 in itertools.product(*(range(g + 1) for g in G)):
            vpart = self.mono_mul(sub_index(G, G1), J).items()
            for Fk, cf in self.mul({F: ONE}, self.antipode_basis(G1)).items():
                for Jk, cj in vpart:
                    k = (Fk, Jk)
                    acc[k] = acc.get(k, ZERO) + cf * cj
        out = tuple((k, c) for k, c in acc.items() if c)
        self._image[key] = out
        return out

    # -- dual --------------------------------------------------------------

    def dual_pair(self, x, u):
        """<x, u> for a DualElement x and an algebra element u."""
        return sum((x.coeffs[I] * u[I] for I in x.coeffs.keys() & u.keys()),
                   ZERO)


def get_env(data):
    """The enveloping algebra of a datum, built once per datum."""
    return data.derived("env", Enveloping)


# ---------------------------------------------------------------------------
# truncated dual


class DualElement:
    """Truncated functional on the enveloping algebra.

    The element is known modulo functionals vanishing on the span of
    e^(I) with |I|' <= truncation; coefficients outside that window are
    meaningless and never stored.
    """

    __slots__ = ("dim", "truncation", "coeffs")

    @staticmethod
    def degree(key):
        """The contact degree that the truncation bounds, of a stored key."""
        return contact_degree(key)

    def __init__(self, dim, truncation, coeffs=None):
        if truncation < 0:
            raise TruncationOverflow("truncation bound exhausted")
        self.dim = dim
        self.truncation = truncation
        self.coeffs = {}
        for key, c in (coeffs or {}).items():
            c = Fraction(c)
            if c and self.degree(key) <= truncation:
                self.coeffs[key] = c

    def __eq__(self, other):
        return (
            self.dim == other.dim
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"{type(self).__name__}(T={self.truncation}, {self.coeffs})"

    def scale(self, c):
        return type(self)(self.dim, self.truncation, vec_scale(self.coeffs, c))

    def add(self, other):
        t = min(self.truncation, other.truncation)
        out = {k: c for k, c in self.coeffs.items() if self.degree(k) <= t}
        for k, c in other.coeffs.items():
            if self.degree(k) <= t:
                w = out.get(k, ZERO) + c
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return type(self)(self.dim, t, out)

    def truncated(self, t):
        return type(self)(self.dim, min(self.truncation, t), self.coeffs)


def dual_monomial(dim, I, truncation):
    return DualElement(dim, truncation, {I: ONE})


def dual_covector(dim, i, truncation):
    """x^i, the functional dual to the generator e_i."""
    return dual_monomial(dim, tuple(eps(dim, i)), truncation)


def dual_mul(x, y):
    """x_J x_K = x_{J+K}; the output keeps the minimum truncation."""
    t = min(x.truncation, y.truncation)
    out = {}
    for I, a in x.coeffs.items():
        for J, b in y.coeffs.items():
            K = add_index(I, J)
            if contact_degree(K) > t:
                continue
            w = out.get(K, ZERO) + a * b
            if w:
                out[K] = w
            else:
                out.pop(K, None)
    return DualElement(x.dim, t, out)


def _action_drop(vec):
    """Contact weight of a degree-1 element: 2 if it touches s, else 1."""
    return 2 if vec[0] else 1


def _dual_act(env, x, vec, side):
    """<x pv, f> = -<x, f pv> on the right, <pv x, f> = -<x, pv f> on the
    left, for the degree-1 element pv of vec."""
    t = x.truncation - _action_drop(vec)
    if t < 0:
        raise TruncationOverflow(f"{side} action exceeds the truncation")
    p = from_vector(vec)
    out = {}
    for J in contact_indices(env.dim, t):
        unit_j = {J: ONE}
        prod = env.mul(p, unit_j) if side == "left" else env.mul(unit_j, p)
        c = -env.dual_pair(x, prod)
        if c:
            out[J] = c
    return DualElement(env.dim, t, out)


def d_left(env, vec, x):
    """Left action of the degree-1 element vec: <pv x, f> = -<x, pv f>."""
    return _dual_act(env, x, vec, "left")


def d_right(env, x, vec):
    """Right action: <x pv, f> = -<x, f pv>."""
    return _dual_act(env, x, vec, "right")


# ---------------------------------------------------------------------------
# symmetrization identities


def symmetrize(env, elements):
    """Complete symmetrization {x_1, ..., x_n}."""
    n = len(elements)
    acc = {}
    for perm in itertools.permutations(range(n)):
        vec_iadd(acc, env.mul_many(*(elements[p] for p in perm)))
    return vec_scale(acc, Fraction(1, math.factorial(n)))


def symmetrization_identity_check(env, a, b, c, d=None):
    """Exact rewriting of an ordered product of degree-1 elements in terms
    of complete symmetrizations of iterated commutators; both displayed
    forms (triple and quadruple) are checked against direct expansion."""
    if d is None:
        return _triple_identity(env, a, b, c)
    return _quadruple_identity(env, a, b, c, d)


def _triple_identity(env, a, b, c):
    br = env.bracket
    lhs = env.mul_many(a, b, c)
    rhs = symmetrize(env, [a, b, c])
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    rhs = vec_add(rhs, vec_scale(symmetrize(env, [a, br(b, c)]), half))
    rhs = vec_add(rhs, vec_scale(symmetrize(env, [b, br(a, c)]), half))
    rhs = vec_add(rhs, vec_scale(symmetrize(env, [c, br(a, b)]), half))
    rhs = vec_add(rhs, vec_scale(br(a, br(b, c)), sixth))
    rhs = vec_add(rhs, vec_scale(br(br(a, b), c), sixth))
    return lhs == rhs


def _quadruple_identity(env, a, b, c, d):
    br = env.bracket
    sym = lambda *els: symmetrize(env, list(els))
    lhs = env.mul_many(a, b, c, d)
    rhs = sym(a, b, c, d)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    sixth = Fraction(1, 6)
    twelfth = Fraction(1, 12)
    for x, y, u, v in (
        (a, b, c, d), (a, c, b, d), (a, d, b, c),
        (b, c, a, d), (b, d, a, c), (c, d, a, b),
    ):
        rhs = vec_add(rhs, vec_scale(sym(x, y, br(u, v)), half))
    for (x, y), (u, v) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        rhs = vec_add(rhs, vec_scale(sym(br(x, y), br(u, v)), quarter))
    for x, p in (
        (a, br(b, br(c, d))), (a, br(br(b, c), d)),
        (b, br(a, br(c, d))), (b, br(br(a, c), d)),
        (c, br(a, br(b, d))), (c, br(br(a, b), d)),
        (d, br(a, br(b, c))), (d, br(br(a, b), c)),
    ):
        rhs = vec_add(rhs, vec_scale(sym(x, p), sixth))
    rhs = vec_add(rhs, vec_scale(br(br(br(c, d), b), a), sixth))
    rhs = vec_add(rhs, vec_scale(br(br(br(b, d), c), a), -sixth))
    for (x, y), (u, v) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
        rhs = vec_add(rhs, vec_scale(br(br(x, y), br(u, v)), twelfth))
    return lhs == rhs
