"""Contact Lie algebra data and the derived symplectic linear algebra.

A contact datum is an odd-dimensional Lie algebra over Q together with a
1-form theta whose associated 2-form omega(a^b) = -theta([a,b]) has a
one-dimensional radical on which theta does not vanish.  The constructor
validates the structure constants, finds the distinguished element s
(theta(s) = -1, radical of omega) and rebuilds everything in the frame
where basis vector 0 is s and vectors 1..2N span ker theta.  All
downstream modules assume that frame.

Conventions in the normalized frame:
  theta(e_0) = -1, theta(e_i) = 0 for i >= 1, so theta = -x^0;
  omega[i][j] = omega(e_i ^ e_j) = -theta([e_i, e_j]) = c[i][j][0];
  r is the inverse of omega restricted to indices 1..2N, stored as a
  full matrix with zero row and column 0;
  the dual vectors are d^i = sum_j r[i][j] e_j with omega(d^i ^ e_k)
  = delta^i_k.
"""

import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Echelon

ZERO = Fraction(0)
ONE = Fraction(1)


class JacobiViolation(ValueError):
    """Structure constants fail antisymmetry or the Jacobi identity."""


class NotContact(ValueError):
    """theta ^ omega^N = 0: the covector is not a contact form."""


@dataclass(frozen=True)
class ContactLieData:
    # index convention: basis vector 0 is the distinguished direction s
    s_index = 0

    dim: int
    c: tuple  # c[i][j][k], coordinates of [e_i, e_j]
    theta: tuple
    omega: tuple  # full dim x dim, zero row/column 0
    rmat: tuple  # inverse of the barred omega, zero row/column 0
    trace_ad: tuple
    input_basis: tuple  # columns: normalized basis in input coordinates

    @property
    def N(self):
        return (self.dim - 1) // 2

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a tuple of (index, coefficient) pairs without
        zeros, built once per datum and shared by every caller."""
        return self.derived("bracket_basis", _bracket_rows)[i][j]

    def bracket_vec(self, u, v):
        return tuple(_bracket(self.c, u, v, self.dim))

    def theta_of(self, v):
        return sum(t * x for t, x in zip(self.theta, v))

    def omega_pair(self, u, v):
        return sum(
            u[i] * self.omega[i][j] * v[j]
            for i in range(self.dim)
            for j in range(self.dim)
            if u[i] and self.omega[i][j]
        )

    def dual_vector(self, i):
        """d^i = sum_j r[i][j] e_j for 1 <= i <= 2N."""
        return tuple(self.rmat[i][j] for j in range(self.dim))

    def ad_matrix(self, k):
        """Matrix of ad e_k on the whole algebra."""
        return tuple(
            tuple(self.c[k][m][l] for m in range(self.dim)) for l in range(self.dim)
        )

    def basis_vector(self, i):
        return tuple(ONE if j == i else ZERO for j in range(self.dim))

    def __post_init__(self):
        # set as an attribute: reading an instance's __dict__ would make
        # every later attribute lookup on the datum about 3x slower
        object.__setattr__(self, "_derived", {})

    def derived(self, key, build):
        """build(self), computed on the first call for `key` and kept on
        this datum.

        A derived value lives exactly as long as its datum and is
        collected with it.  It is not a field, so equality, hashing and
        repr ignore it, and an equal datum built separately builds its
        own.
        """
        memo = self._derived
        if key not in memo:
            memo[key] = build(self)
        return memo[key]


def _bracket_rows(data):
    return tuple(
        tuple(tuple((k, v) for k, v in enumerate(row) if v) for row in rows)
        for rows in data.c
    )


def _check_antisymmetry(dim, c):
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c[i][j][k] != -c[j][i][k]:
                    raise JacobiViolation(
                        f"antisymmetry fails at c[{i}][{j}][{k}]"
                    )


def _bracket(c, u, v, dim):
    out = [ZERO] * dim
    for i in range(dim):
        if not u[i]:
            continue
        for j in range(dim):
            if not v[j]:
                continue
            for k in range(dim):
                if c[i][j][k]:
                    out[k] += u[i] * v[j] * c[i][j][k]
    return out


def _check_jacobi(dim, c):
    basis = [[ONE if m == i else ZERO for m in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                acc = [ZERO] * dim
                for (a, b, d) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = _bracket(c, basis[a], basis[b], dim)
                    outer = _bracket(c, inner, basis[d], dim)
                    for m in range(dim):
                        acc[m] += outer[m]
                if any(acc):
                    raise JacobiViolation(
                        f"Jacobi identity fails on basis triple ({i},{j},{k})"
                    )


def build_contact_data(dim, structure_constants, theta):
    """Validate a (Lie algebra, covector) pair and normalize the frame.

    `structure_constants` is either a nested dim x dim x dim array of
    rationals or a dict {(i, j, k): value}; omitted entries are zero and
    antisymmetric counterparts may be omitted (they are filled in when
    absent, and checked for consistency when present).
    """
    if dim < 3 or dim % 2 == 0:
        raise ValueError("dimension must be odd and at least 3")
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    if isinstance(structure_constants, dict):
        for (i, j, k), v in structure_constants.items():
            v = Fraction(v)
            c[i][j][k] = v
            if c[j][i][k] == ZERO:
                c[j][i][k] = -v
    else:
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    c[i][j][k] = Fraction(structure_constants[i][j][k])
    _check_antisymmetry(dim, c)
    _check_jacobi(dim, c)

    theta = tuple(Fraction(t) for t in theta)
    # omega on the input basis and its radical
    omega_in = [
        [-sum(theta[k] * c[i][j][k] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    sys = linalg.LinearSystem()
    for j in range(dim):
        sys.add_column(j, {i: omega_in[i][j] for i in range(dim) if omega_in[i][j]})
    radical = sys.kernel()
    if len(radical) != 1:
        raise NotContact(f"radical of omega has dimension {len(radical)}")
    s = [radical[0].get(j, ZERO) for j in range(dim)]
    th_s = sum(theta[j] * s[j] for j in range(dim))
    if th_s == 0:
        raise NotContact("theta vanishes on the radical of omega")
    s = [x / (-th_s) for x in s]  # theta(s) = -1

    # basis of ker theta: project the input basis along s and keep a
    # maximal independent subset, in input order
    ech = Echelon()
    bar = []
    for i in range(dim):
        v = [ZERO] * dim
        v[i] = ONE
        ti = theta[i]
        if ti:
            v = [x + ti * y for x, y in zip(v, s)]
        if ech.add({k: x for k, x in enumerate(v) if x}) is not None:
            bar.append(v)
    if len(bar) != dim - 1:
        raise NotContact("ker theta has wrong dimension")  # pragma: no cover

    cols = [tuple(s)] + [tuple(v) for v in bar]
    cprime, pmat = _constants_in(lambda u, v: _bracket(c, u, v, dim), cols)
    return _finalize(dim, cprime, pmat)


def _constants_in(bracket, cols):
    """The structure constants in the basis `cols` of coordinate vectors,
    c[a][b] holding the coordinates of bracket(cols[a], cols[b]), and the
    matrix whose columns are `cols`."""
    dim = len(cols)
    pmat = tuple(zip(*cols))
    pinv = linalg.inverse(pmat)
    c = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            coords = linalg.mat_vec(pinv, bracket(cols[a], cols[b]))
            for k in range(dim):
                c[a][b][k] = coords[k]
                c[b][a][k] = -coords[k]
    return c, pmat


def _finalize(dim, c, input_basis):
    n2 = dim - 1
    # theta = -x^0 in the normalized frame; omega[i][j] = c[i][j][0]
    omega = [[c[i][j][0] for j in range(dim)] for i in range(dim)]
    for j in range(dim):
        if omega[0][j] != 0 or omega[j][0] != 0:
            raise NotContact("[s, ker theta] leaves ker theta")  # pragma: no cover
    barred = tuple(tuple(omega[i][j] for j in range(1, dim)) for i in range(1, dim))
    try:
        rbar = linalg.inverse(barred)
    except ValueError:
        raise NotContact("omega is degenerate on ker theta") from None
    rmat = [[ZERO] * dim for _ in range(dim)]
    for i in range(n2):
        for j in range(n2):
            rmat[i + 1][j + 1] = rbar[i][j]
    trace_ad = tuple(
        sum(c[k][m][m] for m in range(dim)) for k in range(dim)
    )
    theta = tuple([-ONE] + [ZERO] * n2)
    data = ContactLieData(
        dim=dim,
        c=tuple(tuple(tuple(row) for row in plane) for plane in c),
        theta=theta,
        omega=tuple(tuple(row) for row in omega),
        rmat=tuple(tuple(row) for row in rmat),
        trace_ad=trace_ad,
        input_basis=tuple(tuple(row) for row in input_basis),
    )
    # omega(d^i ^ e_k) = delta^i_k, by construction of r
    for i in range(1, dim):
        for k in range(1, dim):
            want = ONE if i == k else ZERO
            got = data.omega_pair(data.dual_vector(i), data.basis_vector(k))
            if got != want:
                raise NotContact("dual basis check failed")  # pragma: no cover
    return data


def rebase(data, new_basis):
    """Rebuild the datum in a new basis (columns, normalized coordinates)."""
    c, pmat = _constants_in(data.bracket_vec, new_basis)
    return _finalize(data.dim, c, linalg.mat_mul(data.input_basis, pmat))


def symplectic_basis(data):
    """Ordered basis (u_1..u_N, v_1..v_N) of ker theta with
    omega(u_i ^ v_i) = 1 and all other pairings zero.

    Symplectic Gram-Schmidt over Q.  When a pairing of +-1 is available the
    pair is oriented rather than rescaled, so an already symplectic basis
    is returned unchanged.
    """
    remaining = [data.basis_vector(i) for i in range(1, data.dim)]
    left, right = [], []
    while remaining:
        u = remaining.pop(0)
        for idx, v in enumerate(remaining):
            w = data.omega_pair(u, v)
            if w:
                remaining.pop(idx)
                break
        else:  # pragma: no cover - nondegeneracy rules this out
            raise NotContact("degenerate omega in symplectic reduction")
        if w == 1:
            e, f = u, v
        elif w == -1:
            e, f = v, u
        else:
            e, f = u, tuple(x / w for x in v)
        remaining = [
            tuple(
                x - data.omega_pair(vec, f) * a - data.omega_pair(e, vec) * b
                for x, a, b in zip(vec, e, f)
            )
            for vec in remaining
        ]
        left.append(e)
        right.append(f)
    return tuple(left + right)


def with_symplectic_basis(data):
    """The same datum, re-expressed in a symplectic frame for ker theta."""
    new_basis = [data.basis_vector(0)] + list(symplectic_basis(data))
    return rebase(data, new_basis)


def is_symplectic(data):
    n = data.N
    for i in range(1, data.dim):
        for j in range(1, data.dim):
            want = ZERO
            if j == i + n:
                want = ONE
            elif i == j + n:
                want = -ONE
            if data.omega[i][j] != want:
                return False
    return True


def check_remark_identity(data):
    """sum_i r^{ki} tr(ad e_i) + 1/2 sum_{ij} r^{ij} c_ij^k = 0 for k != 0.

    Holds for every valid contact datum; exposed as a self-test.
    """
    dim = data.dim
    for k in range(1, dim):
        first = sum(
            data.rmat[k][i] * data.c[i][j][j]
            for i in range(1, dim)
            for j in range(1, dim)
        )
        second = sum(
            data.rmat[i][j] * data.c[i][j][k]
            for i in range(1, dim)
            for j in range(1, dim)
        ) / 2
        if first + second != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# built-in algebras and the text input format


def sl2():
    """sl2 with basis (e, f, h) and theta(h) = 1; normalizes to s = -h."""
    consts = {
        (0, 1, 2): 1,   # [e, f] = h
        (2, 0, 0): 2,   # [h, e] = 2e
        (2, 1, 1): -2,  # [h, f] = -2f
    }
    return build_contact_data(3, consts, (0, 0, 1))


def heisenberg(n):
    """Heisenberg algebra on (a_1..a_n, b_1..b_n, z) with [a_i, b_i] = z
    and theta(z) = 1; normalizes to s = -z."""
    dim = 2 * n + 1
    consts = {(i, n + i, 2 * n): 1 for i in range(n)}
    return build_contact_data(dim, consts, (0,) * (dim - 1) + (1,))


def builtin(name):
    if name == "sl2":
        return sl2()
    if name.startswith("heisenberg:"):
        return heisenberg(int(name.split(":", 1)[1]))
    raise KeyError(f"unknown builtin algebra {name!r}")


def parse_rational(x):
    """x as a Fraction: an int, a string `Fraction` reads, or a pair of
    ints; anything else raises ValueError, as does a string over the
    digit limit of `_check_exponent`."""
    if isinstance(x, bool):
        raise ValueError("boolean is not a rational")
    try:
        if isinstance(x, str):
            _check_exponent(x)
        if isinstance(x, (int, str)):
            return Fraction(x)
        if isinstance(x, (list, tuple)) and len(x) == 2 and all(
                isinstance(p, int) and not isinstance(p, bool) for p in x):
            return Fraction(*x)
    except ZeroDivisionError:
        raise ValueError(f"rational {x!r} has denominator 0") from None
    raise ValueError(f"cannot parse rational from {x!r}")


def _check_exponent(text):
    """Reject a string whose numerator or denominator would have more than
    sys.get_int_max_str_digits() digits, the limit `json` puts on integer
    tokens.  `Fraction` parses each integer under it, but scales by
    10^|exp| unchecked; the mantissa's digits plus |exp| bound both."""
    limit = sys.get_int_max_str_digits()
    mantissa, _, exp = text.lower().partition("e")
    exp = exp.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not (limit and exp.isdecimal()):
        return
    digits = sum(ch.isdecimal() for ch in mantissa)
    if len(exp) > len(str(limit)) or digits + int(exp) > limit:
        raise ValueError(
            f"rational {text!r} has more than {limit} digits")


def _bracket_index(x, dim):
    if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < dim:
        raise ValueError(
            f"bracket index {x!r} is not an integer in 0..{dim - 1}"
        )
    return x


def load_algebra(text):
    """Parse the shared input format: a JSON object with fields `dim`,
    `brackets` (list of [i, j, k, numerator, denominator], with integer
    indices 0 <= i, j, k < dim and a nonzero denominator) and `theta` (list
    of rationals).  Omitted brackets are zero.  Malformed input raises
    ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or "dim" not in doc or "theta" not in doc:
        raise ValueError("an algebra must be a JSON object with dim and theta")
    dim, brackets = doc["dim"], doc.get("brackets", [])
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"dim {dim!r} is not an integer")
    if not isinstance(brackets, list) or not isinstance(doc["theta"], list):
        raise ValueError("brackets and theta must be lists")
    consts = {}
    for entry in brackets:
        if not isinstance(entry, list) or len(entry) != 5:
            raise ValueError(
                f"bracket {entry!r} is not [i, j, k, numerator, denominator]"
            )
        i, j, k, num, den = entry
        key = tuple(_bracket_index(x, dim) for x in (i, j, k))
        consts[key] = parse_rational((num, den))
    theta = tuple(parse_rational(t) for t in doc["theta"])
    if len(theta) != dim:
        raise ValueError("theta must have one entry per basis vector")
    return build_contact_data(dim, consts, theta)


def load_algebra_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_algebra(fh.read())


def resolve_algebra(source):
    """Accept 'sl2', 'heisenberg:N', or a path to an input file."""
    try:
        return builtin(source)
    except KeyError:
        return load_algebra_file(source)
