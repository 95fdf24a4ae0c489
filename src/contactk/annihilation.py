"""Truncated annihilation algebras.

The derivation-type annihilation algebra is X (x) d for X the dual of
the enveloping algebra; its contact subalgebra is the image of the rank
one Fourier family x (x)_H e under

    x (x)_H e  |->  x (x) e_0 - sum_i (x e_i) (x) d^i.

Everything is computed modulo a contact-degree truncation, carried on
each element.  Bracketing costs up to two units of truncation (the right
actions by the distinguished direction), embedding costs one.

Filtration conventions (all monomial, so membership is coefficient
filtering): W_p keeps functionals supported in plain degree >= p+1;
W'_p keeps (x_I (x) e_j) with contact degree >= p+1 for j >= 1 and
>= p+2 for j = 0; K'_p is spanned by x (x)_H e with x supported in
contact degree >= p+1.
"""

from fractions import Fraction

from . import enveloping as env_mod
from . import linalg, sp_rep
from .enveloping import (
    DualElement,
    TruncationOverflow,
    contact_degree,
    d_right,
    dual_mul,
    plain_degree,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class TruncatedWElement(DualElement):
    """Sum of x_I (x) e_j, keyed (I, j), known modulo terms of contact
    degree beyond the truncation bound."""

    __slots__ = ()

    @staticmethod
    def degree(key):
        return contact_degree(key[0])


def w_monomial(dim, I, j, truncation):
    return TruncatedWElement(dim, truncation, {(tuple(I), j): ONE})


def _drop_of_direction(j):
    return 2 if j == 0 else 1


def w_bracket(env, u, v):
    """[x (x) a, y (x) b] = xy (x) [a,b] - x(ya) (x) b + (xb)y (x) a."""
    data = env.data
    dim = data.dim
    drop = 1
    for (_I, j) in list(u.coeffs) + list(v.coeffs):
        drop = max(drop, _drop_of_direction(j))
    t = min(u.truncation, v.truncation) - drop
    if t < 0:
        raise TruncationOverflow("bracket exceeds the truncation")
    acc = {}

    def put(I, j, c):
        if contact_degree(I) > t or not c:
            return
        key = (I, j)
        w = acc.get(key, ZERO) + c
        if w:
            acc[key] = w
        else:
            acc.pop(key, None)

    for (I, a), cu in u.coeffs.items():
        x = DualElement(dim, min(u.truncation, t + 2), {I: ONE})
        for (J, b), cv in v.coeffs.items():
            y = DualElement(dim, min(v.truncation, t + 2), {J: ONE})
            scl = cu * cv
            # xy (x) [a, b]
            xy = dual_mul(x, y)
            for k, cbr in data.bracket_basis(a, b):
                for K, ck in xy.coeffs.items():
                    put(K, k, scl * cbr * ck)
            # - x (y a) (x) b
            ya = d_right(env, y, data.basis_vector(a))
            xya = dual_mul(x, ya)
            for K, ck in xya.coeffs.items():
                put(K, b, -scl * ck)
            # + (x b) y (x) a
            xb = d_right(env, x, data.basis_vector(b))
            xby = dual_mul(xb, y)
            for K, ck in xby.coeffs.items():
                put(K, a, scl * ck)
    return TruncatedWElement(dim, t, acc)


def embed_k(env, x):
    """Image of x (x)_H e inside X (x) d."""
    data = env.data
    dim = data.dim
    t = x.truncation - 1
    acc = {}
    for I, c in x.coeffs.items():
        if contact_degree(I) <= t:
            linalg.vec_put(acc, (I, 0), c)
    for i in range(1, dim):
        xi = d_right(env, x, data.basis_vector(i))
        dual = data.dual_vector(i)
        for I, c in xi.coeffs.items():
            for m in range(1, dim):
                if dual[m]:
                    linalg.vec_put(acc, (I, m), -c * dual[m])
    return TruncatedWElement(dim, t, acc)


def right_actions(env, x):
    """x with its right actions x e_i = d_right(x, e_i) for i = 0..dim-1:
    all that `acted_bracket` reads of x, so a caller that brackets x many
    times computes them once."""
    data = env.data
    return x, [d_right(env, x, data.basis_vector(i)) for i in range(data.dim)]


def acted_bracket(env, xa, ya):
    """Bracket of the Fourier coefficients x (x)_H e and y (x)_H e, as the
    dual-space coefficient of the result:
    sum r^{ij} (x e_i)(y e_j) + (x e_0) y - x (y e_0),
    with x and y given as their `right_actions` pairs."""
    (x, xe), (y, ye) = xa, ya
    data = env.data
    dim = data.dim
    t = min(x.truncation, y.truncation) - 2
    if t < 0:
        raise TruncationOverflow("bracket exceeds the truncation")
    acc = DualElement(dim, t, {})
    for i in range(1, dim):
        for j in range(1, dim):
            r = data.rmat[i][j]
            if r:
                acc = acc.add(dual_mul(xe[i], ye[j]).truncated(t).scale(r))
    acc = acc.add(dual_mul(xe[0], y).truncated(t))
    acc = acc.add(dual_mul(x, ye[0]).truncated(t).scale(-ONE))
    return acc


# ---------------------------------------------------------------------------
# filtrations (all monomial)


def in_w_plain(w, p):
    """Membership in W_p: every stored term has plain degree >= p+1."""
    return all(plain_degree(I) >= p + 1 for (I, _j) in w.coeffs)


def drop_w_intersection(w, p):
    """Representative modulo W'_p cap W_p."""
    out = {}
    for (I, j), c in w.coeffs.items():
        need = p + 2 if j == 0 else p + 1
        inside = contact_degree(I) >= need and plain_degree(I) >= p + 1
        if not inside:
            out[(I, j)] = c
    return TruncatedWElement(w.dim, w.truncation, out)


# ---------------------------------------------------------------------------
# the gl identification of W_0/W_1


def w0_class_to_gl(data, w):
    """(x (x) a) mod W_1 maps to -a (x) (x mod quadratic): the matrix with
    -coeff at (a, m) for each x^m (x) e_a term.  Terms of plain degree
    >= 2 are discarded; constant terms are rejected."""
    dim = data.dim
    mat = [[ZERO] * dim for _ in range(dim)]
    for (I, a), c in w.coeffs.items():
        deg = plain_degree(I)
        if deg == 0:
            raise ValueError("element does not lie in W_0")
        if deg == 1:
            m = next(k for k, v in enumerate(I) if v)
            mat[a][m] -= c
    return tuple(tuple(row) for row in mat)


def w0_quotient_iso_check(env, truncation=4):
    """The induced bracket on W_0/W_1 matches gl(d), and its adjoint
    action on W/W_0 matches the defining action on d.  Returns (ok,
    witness): the witness names the first failing (a, m, b, n) or
    (a, m, k) with both sides, and is None when every case holds."""
    data = env.data
    dim = data.dim
    for a in range(dim):
        for m in range(dim):
            u = w_monomial(dim, env_mod.eps(dim, m), a, truncation)
            for b in range(dim):
                for n in range(dim):
                    v = w_monomial(dim, env_mod.eps(dim, n), b, truncation)
                    br = w_bracket(env, u, v)
                    got = w0_class_to_gl(data, br)
                    want = linalg.commutator(
                        linalg.mat_scale(linalg.elementary(dim, a, m), -ONE),
                        linalg.mat_scale(linalg.elementary(dim, b, n), -ONE),
                    )
                    if got != want:
                        return False, {"a": a, "m": m, "b": b, "n": n,
                                       "lhs": got, "rhs": want}
            # adjoint action on W/W_0: [x^m (x) e_a, 1 (x) e_k] mod W_0
            for k in range(dim):
                v = w_monomial(dim, env_mod.unit_index(dim), k, truncation)
                br = w_bracket(env, u, v)
                const = {}
                for (I, j), c in br.coeffs.items():
                    if plain_degree(I) == 0:
                        linalg.vec_put(const, j, c)
                want_vec = linalg.mat_vec(
                    linalg.mat_scale(linalg.elementary(dim, a, m), -ONE),
                    data.basis_vector(k),
                )
                want = {j: c for j, c in enumerate(want_vec) if c}
                if const != want:
                    return False, {"a": a, "m": m, "k": k,
                                   "lhs": const, "rhs": want}
    return True, None


# ---------------------------------------------------------------------------
# Fourier coefficients of the contact generator


def fourier_images_check(env, truncation=4):
    """The first Fourier coefficients of the generator match their stated
    images, modulo the stated filtration windows.  Returns (ok, witness)."""
    data = env.data
    dim = data.dim

    def dual_mono(I):
        return env_mod.dual_monomial(dim, tuple(I), truncation)

    failures = []

    def compare(tag, got_w, want_coeffs, window):
        t = got_w.truncation
        want = TruncatedWElement(dim, t, want_coeffs)
        if window == "exact":
            ok = got_w.coeffs == want.coeffs
        else:
            p = 1
            a = drop_w_intersection(got_w, p)
            b = drop_w_intersection(want, p)
            ok = a.coeffs == b.coeffs
        if not ok:
            failures.append(tag)

    zero = env_mod.unit_index(dim)
    eps = [tuple(env_mod.eps(dim, i)) for i in range(dim)]

    # (i): 1 -> 1 (x) e_0
    compare("unit", embed_k(env, dual_mono(zero)), {(zero, 0): ONE}, "exact")

    # (ii): x^j -> 1 (x) d^j + x^j (x) e_0 - sum_{0<i<k} c_ik^j x^k (x) d^i
    for j in range(1, dim):
        want = {}
        dual_j = data.dual_vector(j)
        for m in range(1, dim):
            if dual_j[m]:
                linalg.vec_put(want, (zero, m), dual_j[m])
        linalg.vec_put(want, (eps[j], 0), ONE)
        for i in range(1, dim):
            for k in range(i + 1, dim):
                c = data.c[i][k][j]
                if not c:
                    continue
                dual_i = data.dual_vector(i)
                for m in range(1, dim):
                    if dual_i[m]:
                        linalg.vec_put(want, (eps[k], m), -c * dual_i[m])
        compare(f"covector_{j}", embed_k(env, dual_mono(eps[j])), want, "mod")

    # (iii): x^0 -> x^0 (x) e_0 - sum_{0<i<k} omega_ik x^k (x) d^i
    want = {(eps[0], 0): ONE}
    for i in range(1, dim):
        for k in range(i + 1, dim):
            w = data.omega[i][k]
            if not w:
                continue
            dual_i = data.dual_vector(i)
            for m in range(1, dim):
                if dual_i[m]:
                    linalg.vec_put(want, (eps[k], m), -w * dual_i[m])
    compare("vertical", embed_k(env, dual_mono(eps[0])), want, "mod")

    # (iv): x^i x^j -> 2 f^{ij} mod W_1 (through the gl identification)
    gens = sp_rep.sp_gens_for(data)
    for i in range(1, dim):
        for j in range(i, dim):
            I = env_mod.add_index(eps[i], eps[j])
            got = embed_k(env, dual_mono(I))
            mat = w0_class_to_gl(data, got)
            want_mat = sp_rep.embed_bar(
                data, linalg.mat_scale(gens.f(i, j), 2)
            )
            if mat != want_mat:
                failures.append(f"quadratic_{i}_{j}")

    # (v): x^0 x^j -> x^0 (x) d^j mod the intersection window
    for j in range(1, dim):
        I = env_mod.add_index(eps[0], eps[j])
        want = {}
        dual_j = data.dual_vector(j)
        for m in range(1, dim):
            if dual_j[m]:
                want[(eps[0], m)] = dual_j[m]
        compare(f"mixed_{j}", embed_k(env, dual_mono(I)), want, "mod")

    # (vi): x^i x^j x^k -> 0 mod the intersection window
    for i in range(1, dim):
        for j in range(i, dim):
            for k in range(j, dim):
                I = env_mod.add_index(env_mod.add_index(eps[i], eps[j]), eps[k])
                compare(f"cubic_{i}_{j}_{k}", embed_k(env, dual_mono(I)), {},
                        "mod")
    return (not failures), failures


def iprime_expansion_check(env, truncation=4):
    """-I' = 2 x^0 (x)_H e + 2 sum_{0<i<j} omega_ij f^{ij} mod W_1."""
    data = env.data
    dim = data.dim
    gens = sp_rep.sp_gens_for(data)
    x0 = env_mod.dual_covector(dim, 0, truncation)
    got = w0_class_to_gl(data, embed_k(env, x0).scale(2))
    lhs = linalg.mat_comb(dim, [(ONE, got)] + [
        (2 * data.omega[i][j], sp_rep.embed_bar(data, gens.f(i, j)))
        for i in range(1, dim) for j in range(i + 1, dim)
        if data.omega[i][j]])
    return lhs == linalg.mat_scale(gens.i_prime, -ONE)


def csp_quotient_check(env, truncation=5):
    """The quotient of the degree-zero part of the contact annihilation
    algebra by its next filtration step has the bracket table of the
    centrally extended symplectic algebra, and the next step covers the
    abelian column algebra."""
    data = env.data
    dim = data.dim
    gens = sp_rep.sp_gens_for(data)
    eps = [tuple(env_mod.eps(dim, i)) for i in range(dim)]

    labels = []
    for i in range(1, dim):
        for j in range(i, dim):
            labels.append(("f", i, j))
    labels.append(("v",))

    def dual_of(lab):
        if lab[0] == "f":
            _t, i, j = lab
            return env_mod.dual_monomial(
                dim, env_mod.add_index(eps[i], eps[j]), truncation
            )
        return env_mod.dual_monomial(dim, eps[0], truncation)

    def pi_of(lab):
        if lab[0] == "f":
            _t, i, j = lab
            return sp_rep.embed_bar(data, linalg.mat_scale(gens.f(i, j), 2))
        return linalg.mat_comb(dim, [(Fraction(-1, 2), gens.i_prime)] + [
            (-data.omega[i][j], sp_rep.embed_bar(data, gens.f(i, j)))
            for i in range(1, dim) for j in range(i + 1, dim)
            if data.omega[i][j]])

    def class_to_gl(x):
        """Map the contact-degree-two part of a Fourier coefficient class
        through the quotient identification."""
        terms = []
        for I, c in x.coeffs.items():
            cd = contact_degree(I)
            if cd >= 3:
                continue  # inside the next filtration step
            if cd <= 1:
                raise ValueError("element does not lie in the degree-0 part")
            if I[0] == 1:
                terms.append((c, pi_of(("v",))))
            else:
                pair = [k for k, v in enumerate(I) if v for _ in range(v)]
                i, j = pair
                terms.append((2 * c, sp_rep.embed_bar(data, gens.f(i, j))))
        return linalg.mat_comb(dim, terms)

    acts = {lab: right_actions(env, dual_of(lab)) for lab in labels}
    for la in labels:
        for lb in labels:
            br = acted_bracket(env, acts[la], acts[lb])
            got = class_to_gl(br)
            want = linalg.commutator(pi_of(la), pi_of(lb))
            # the quotient table lives in csp: compare modulo the abelian
            # column part, which is the image of the next filtration step
            got_csp = tuple(
                tuple(got[r][c] if not (c == 0 and r >= 1) else ZERO
                      for c in range(dim))
                for r in range(dim)
            )
            want_csp = tuple(
                tuple(want[r][c] if not (c == 0 and r >= 1) else ZERO
                      for c in range(dim))
                for r in range(dim)
            )
            if got_csp != want_csp:
                return False

    # the next filtration step maps onto the abelian column algebra
    ech = linalg.Echelon()
    for j in range(1, dim):
        x = env_mod.dual_monomial(
            dim, env_mod.add_index(eps[0], eps[j]), truncation
        )
        mat = w0_class_to_gl(data, embed_k(env, x))
        for r in range(dim):
            if mat[0][r] != 0 or (r >= 1 and any(
                    mat[r][c] != 0 for c in range(1, dim))):
                return False
        ech.add({r: mat[r][0] for r in range(1, dim) if mat[r][0]})
    for i in range(1, dim):
        for j in range(i, dim):
            for k in range(j, dim):
                I = env_mod.add_index(
                    env_mod.add_index(eps[i], eps[j]), eps[k]
                )
                x = env_mod.dual_monomial(dim, I, truncation)
                mat = w0_class_to_gl(data, embed_k(env, x))
                if not linalg.is_zero_matrix(mat):
                    return False
    return ech.rank == dim - 1


def k_contact_filter_check(env, truncation=4):
    """[K'_m, K'_n] is contained in K'_{m+n} on spanning Fourier
    coefficients, and K'_2 lies inside W_1, at the working truncation.

    A monomial Fourier coefficient of contact degree cd spans a class at
    filtration level cd - 2; the bracket of levels m and n must have
    support in contact degree at least m + n + 2."""
    data = env.data
    dim = data.dim
    samples = [
        (contact_degree(I) - 2,
         right_actions(env, env_mod.dual_monomial(dim, I, truncation)))
        for I in env_mod.contact_indices(dim, truncation)
    ]
    for (m, xa) in samples:
        if m >= 2 and not in_w_plain(embed_k(env, xa[0]), 1):
            return False
        for (n, ya) in samples:
            br = acted_bracket(env, xa, ya)
            for K in br.coeffs:
                if contact_degree(K) < m + n + 2:
                    return False
    return True
