"""Constant-coefficient exterior algebra on a contact Lie algebra.

Forms are stored by their evaluations against increasing basis tuples:
a degree-n form is a sparse dict mapping strictly increasing index tuples
(i_1 < ... < i_n) to rationals, with coefficient = alpha(e_{i_1} ^ ... ^
e_{i_n}).  On that normalization the wedge product is a shuffle-sign merge
of index tuples (`merge`), with no factorials anywhere.

d0 (x^k |-> -sum_{i<j} c_ij^k x^i ^ x^j), the contraction with a vector v
(x^m |-> v^m) and the gl(d) action (x^m |-> -sum_j A[m][j] x^j) are
graded derivations D, each fixed by its image on covectors.  `derive`
expands any of them on a monomial by one rule, which holds for D of
either parity:

    D(x^{k_0} ^ ... ^ x^{k_{n-1}})
        = sum_p (-1)^p D(x^{k_p}) ^ (x^k without slot p),

so each operator is scattered from the terms of its input.

The module also builds the contact reduction with constant coefficients:
the subspaces I^n (wedge multiples of theta and omega), the joint kernels
K^n, their barred analogues on ker theta, and the theta/omega system that
the completion of the Rumin map solves.  The contact complex itself, with
free and with constant coefficients, is built in `pseudoforms`.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Echelon, LinearSystem

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Graded:
    """A graded sparse element: a degree and a sorted tuple of (key,
    coefficient) pairs without zeros.  A subclass supplies `build(degree,
    coeffs)`, which makes an instance from a dict or a list of pairs."""

    degree: int
    coeffs: tuple

    def items(self):
        return self.coeffs

    def get(self, key):
        for k, v in self.coeffs:
            if k == key:
                return v
        return ZERO

    def as_dict(self):
        return dict(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError(f"cannot add forms of degrees {self.degree} "
                             f"and {other.degree}")
        d = self.as_dict()
        linalg.vec_iadd(d, other.as_dict())
        return self.build(self.degree, d)

    def __sub__(self, other):
        return self + (-ONE) * other

    def __rmul__(self, c):
        return self.build(self.degree, linalg.vec_scale(self.as_dict(), c))

    def __neg__(self):
        return (-ONE) * self


class Form(Graded):
    """A constant form; keys are increasing index tuples."""

    @staticmethod
    def build(degree, coeffs):
        return form(degree, coeffs)


def form(degree, coeffs):
    clean = []
    for k, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
        v = Fraction(v)
        if v == 0:
            continue
        if len(k) != degree or any(k[i] >= k[i + 1] for i in range(len(k) - 1)):
            raise ValueError(f"key {k} is not an increasing {degree}-tuple")
        clean.append((tuple(k), v))
    return Form(degree, tuple(sorted(clean)))


def one_form(i):
    """Basis covector x^i."""
    return form(1, {(i,): ONE})


def scalar_form(c):
    return form(0, {(): c})


def monomials(dim, n):
    if n < 0:
        return []
    return list(itertools.combinations(range(dim), n))


def merge(ka, kb):
    """x^ka ^ x^kb as (sign, key): key is the sorted ka + kb and sign the
    parity of the shuffle that sorts it; None if the keys share an index."""
    inv = j = 0
    for x in ka:
        while j < len(kb) and kb[j] < x:
            j += 1
        if j < len(kb) and kb[j] == x:
            return None
        inv += j
    return (-ONE if inv % 2 else ONE), tuple(sorted(ka + kb))


def derive(key, image):
    """The (key, coefficient) terms of D(x^key) for a derivation D of
    either parity, with image[m] the terms of D(x^m)."""
    for p, m in enumerate(key):
        rest = key[:p] + key[p + 1:]
        for mk, c in image[m]:
            hit = merge(mk, rest)
            if hit is not None:
                yield hit[1], (-c if p % 2 else c) * hit[0]


def _apply(a, degree, image):
    """The derivation with the given image on a form, to the given degree."""
    out = {}
    for key, v in a.items():
        for full, c in derive(key, image):
            linalg.vec_put(out, full, c * v)
    return form(degree, out)


def theta_form(data):
    return form(1, {(0,): -ONE})


def omega_form(data):
    out = {}
    for i in range(1, data.dim):
        for j in range(i + 1, data.dim):
            if data.omega[i][j]:
                out[(i, j)] = data.omega[i][j]
    return form(2, out)


def wedge(a, b):
    """Shuffle-sign merge; bilinear, graded-commutative, associative."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            hit = merge(ka, kb)
            if hit is not None:
                linalg.vec_put(out, hit[1], hit[0] * va * vb)
    return form(a.degree + b.degree, out)


def wedge_power(a, m):
    out = scalar_form(ONE)
    for _ in range(m):
        out = wedge(out, a)
    return out


def d0_image(data):
    """d0 on covectors, x^k |-> -sum_{i<j} c_ij^k x^i ^ x^j: image[k] is a
    tuple of ((i, j), coefficient) pairs, built once per datum."""

    def build(data):
        out = [[] for _ in range(data.dim)]
        for i in range(data.dim):
            for j in range(i + 1, data.dim):
                for k, cv in data.bracket_basis(i, j):
                    out[k].append(((i, j), -cv))
        return tuple(tuple(terms) for terms in out)

    return data.derived("d0_image", build)


def d0(data, a):
    """Lie algebra cohomology differential with trivial coefficients."""
    return _apply(a, a.degree + 1, d0_image(data))


def contract(vec, a):
    """Interior product with the vector (coordinate tuple) vec."""
    if a.degree == 0:
        return Form(-1, ())
    return _apply(a, a.degree - 1, contraction_image(vec))


def contraction_image(vec):
    """The contraction with vec on covectors, x^m |-> vec^m, as an image
    for `derive`."""
    return [(((), v),) if v else () for v in vec]


def gl_image(A):
    """The even derivation of A in gl(d) on covectors, x^m |-> -sum_j
    A[m][j] x^j, as an image for `derive`."""
    return [tuple(((j,), -v) for j, v in enumerate(row) if v) for row in A]


def gl_act(A, a):
    """Even-derivation action of A in gl(d) on forms: the negative of
    substituting A into each slot; on covectors, e_k^j . x^i = -d^i_k x^j."""
    return _apply(a, a.degree, gl_image(A))


def theta_mul(data, a):
    return wedge(theta_form(data), a)


# ---------------------------------------------------------------------------
# subspaces, reductions, the constant Rumin complex


def subspace(forms):
    """Echelonized span of forms, keyed by monomial tuples."""
    ech = Echelon()
    for f in forms:
        ech.add(f.as_dict())
    return ech


def compute_I(data, n):
    """I^n = omega ^ W^{n-2} + theta ^ W^{n-1} as an echelon."""
    gens = []
    om, th = omega_form(data), theta_form(data)
    for key in monomials(data.dim, n - 2):
        gens.append(wedge(om, form(n - 2, {key: ONE})))
    for key in monomials(data.dim, n - 1):
        gens.append(wedge(th, form(n - 1, {key: ONE})))
    return subspace(gens)


def compute_K(data, n):
    """K^n = ker(theta ^ .) cap ker(omega ^ .) on W^n, as an echelonized
    form basis with strictly increasing leading monomials."""
    sys = LinearSystem()
    om, th = omega_form(data), theta_form(data)
    for key in monomials(data.dim, n):
        mono = form(n, {key: ONE})
        col = {}
        for k, v in wedge(th, mono).items():
            col[("th",) + k] = v
        for k, v in wedge(om, mono).items():
            col[("om",) + k] = v
        sys.add_column(key, col)
    return [form(n, v) for v in sys.kernel()]


def standard_keys(data, n, ech_I):
    """Monomials of degree n that are not leading terms of I^n."""
    return [k for k in monomials(data.dim, n) if k not in ech_I.rows]


# barred spaces: forms on ker theta, i.e. monomials avoiding index 0

def bar_monomials(dim, n):
    return [k for k in monomials(dim, n) if 0 not in k]


def compute_Ibar(data, n):
    om = omega_form(data)
    ech = Echelon()
    for key in bar_monomials(data.dim, n - 2):
        ech.add(wedge(om, form(n - 2, {key: ONE})).as_dict())
    return ech


def compute_Kbar(data, n):
    sys = LinearSystem()
    om = omega_form(data)
    for key in bar_monomials(data.dim, n):
        mono = form(n, {key: ONE})
        sys.add_column(key, wedge(om, mono).as_dict())
    return [form(n, v) for v in sys.kernel()]


def psi_bar_power_matrix(data, m):
    """Matrix of (omega ^ .)^m from barred degree N-m to degree N+m, as a
    LinearSystem keyed by source monomials."""
    nn = data.N
    om = omega_form(data)
    sys = LinearSystem()
    for key in bar_monomials(data.dim, nn - m):
        f = form(nn - m, {key: ONE})
        for _ in range(m):
            f = wedge(om, f)
        sys.add_column(key, f.as_dict())
    return sys


def psi_bar_power_is_iso(data, m):
    nn = data.N
    sys = psi_bar_power_matrix(data, m)
    src = len(bar_monomials(data.dim, nn - m))
    return sys.image_rank() == src


def lemma_composition_is_iso(data, m):
    """Kbar^{N+m} -> Wbar^{N+m} -> (Psi-bar^m)^{-1} -> Wbar^{N-m}/Ibar^{N-m}
    is bijective, for 0 <= m <= N."""
    nn = data.N
    kbar = compute_Kbar(data, nn + m)
    ibar = compute_Ibar(data, nn - m)
    quot_dim = len(bar_monomials(data.dim, nn - m)) - ibar.rank
    if len(kbar) != quot_dim:
        return False
    if not kbar:
        return True
    power = psi_bar_power_matrix(data, m)
    ech = Echelon()
    for f in kbar:
        sol = power.solve(f.as_dict())
        if sol is None:
            return False
        ech.add(ibar.reduce(sol))
    return ech.rank == quot_dim


# ---------------------------------------------------------------------------
# the completion system of the Rumin map


def theta_omega_solver(data, n, reverse=False):
    """Span of {theta^monomial, omega^monomial} in degree n, built once per
    datum, with a deterministic column order (optionally reversed, to
    exercise independence of pivoting choices)."""

    def build(data):
        om, th = omega_form(data), theta_form(data)
        sys = LinearSystem()
        cols = [("th", k) for k in monomials(data.dim, n - 1)]
        cols += [("om", k) for k in monomials(data.dim, n - 2)]
        if reverse:
            cols = list(reversed(cols))
        for lab in cols:
            kind, k = lab
            base = form(n - 1 if kind == "th" else n - 2, {k: ONE})
            img = wedge(th if kind == "th" else om, base)
            sys.add_column(lab, img.as_dict())
        return sys

    return data.derived(("theta_omega", n, reverse), build)


def solve_theta_omega(data, n, target, reverse=False):
    """Write a degree-n form as theta^beta + omega^gamma; always solvable
    for n >= N+1.  Returns (beta, gamma)."""
    sys = theta_omega_solver(data, n, reverse)
    sol = sys.solve(target.as_dict())
    if sol is None:
        raise ValueError("completion system is inconsistent")
    beta = form(n - 1, {k: v for (kind, k), v in sol.items() if kind == "th"})
    gamma = form(n - 2, {k: v for (kind, k), v in sol.items() if kind == "om"})
    return beta, gamma


def ce_cohomology_dims(data):
    """Brute-force cohomology of (W, d0) by row reduction."""
    dims = []
    ranks = []
    for n in range(data.dim + 1):
        sys = LinearSystem()
        for key in monomials(data.dim, n):
            img = d0(data, form(n, {key: ONE}))
            sys.add_column(key, img.as_dict())
        ranks.append(sys.image_rank())
        dims.append(len(monomials(data.dim, n)))
    out = []
    for n in range(data.dim + 1):
        kdim = dims[n] - ranks[n]
        out.append(kdim - (ranks[n - 1] if n > 0 else 0))
    return out
