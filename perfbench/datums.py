"""Seeded re-based contact datums for the points-rebased workload.

A datum is a base contact Lie algebra (sl2, heisenberg:1 or heisenberg:2,
given here by its textbook structure constants) written in a random
basis: the columns of an invertible integer matrix with small entries.
The covector theta is drawn at random as well.  A draw is redrawn when
the program's loader rejects it as not contact, and also when the 2-form
omega = -theta([., .]) has a zero off-diagonal entry: sparse draws run
several times faster than dense ones, so admitting them would make the
workload's cost depend on the seed far more than on the program.

The files use the program's documented input format (`dim`, `brackets`
as [i, j, k, numerator, denominator] rows, `theta`).  The same seed
gives byte-identical files.
"""

import json
import random
from fractions import Fraction

ENTRY_RANGE = (-2, 2)
THETA_RANGE = (-3, 3)
THETA_DRAWS = 50


def base_brackets(name):
    """(dim, {(i, j, k): coefficient}) with i < j, in the usual basis."""
    if name == "sl2":
        # basis (e, f, h): [e, f] = h, [h, e] = 2e, [h, f] = -2f
        return 3, {(0, 1, 2): 1, (0, 2, 0): -2, (1, 2, 1): 2}
    if name.startswith("heisenberg:"):
        n = int(name.split(":", 1)[1])
        # basis (a_1..a_n, b_1..b_n, z): [a_i, b_i] = z
        return 2 * n + 1, {(i, n + i, 2 * n): 1 for i in range(n)}
    raise KeyError(name)


def _bracket(dim, consts, u, v):
    out = [Fraction(0)] * dim
    for (i, j, k), x in consts.items():
        out[k] += x * (u[i] * v[j] - u[j] * v[i])
    return out


def _inverse(mat):
    """Exact inverse of a square integer matrix, or None if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _rebased_brackets(dim, consts, basis, inv):
    """Structure constants of the new basis (columns of `basis`)."""
    cols = [[basis[i][a] for i in range(dim)] for a in range(dim)]
    rows = []
    for a in range(dim):
        for b in range(a + 1, dim):
            w = _bracket(dim, consts, cols[a], cols[b])
            for k in range(dim):
                x = sum((inv[k][m] * w[m] for m in range(dim)), Fraction(0))
                if x:
                    rows.append([a, b, k, x.numerator, x.denominator])
    return rows


def _omega_dense(dim, brackets, theta):
    """True when omega(e_i, e_j) = -theta([e_i, e_j]) is nonzero for all
    i != j; the normalized frame's symplectic form is then dense too, as
    its barred block is omega on projections of these basis vectors."""
    omega = {}
    for i, j, k, num, den in brackets:
        omega[i, j] = omega.get((i, j), 0) - theta[k] * Fraction(num, den)
    return all(omega.get((i, j)) for i in range(dim) for j in range(i + 1, dim))


def rebased_datum(name, rng):
    """One datum as a JSON-ready dict; `rng` is a random.Random."""
    from contactk import contact_lie

    dim, consts = base_brackets(name)
    while True:
        basis = [[rng.randint(*ENTRY_RANGE) for _ in range(dim)]
                 for _ in range(dim)]
        inv = _inverse(basis)
        if inv is None:
            continue
        brackets = _rebased_brackets(dim, consts, basis, inv)
        for _ in range(THETA_DRAWS):
            theta = [rng.randint(*THETA_RANGE) for _ in range(dim)]
            if not _omega_dense(dim, brackets, theta):
                continue
            doc = {"dim": dim, "brackets": brackets, "theta": theta}
            try:
                contact_lie.load_algebra(json.dumps(doc))
            except contact_lie.NotContact:
                continue
            return doc


def dump(doc):
    """Canonical text of a datum file."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def write_datums(names, seed, directory):
    """Write one datum per entry of `names`; return their paths in order."""
    rng = random.Random(f"points-rebased:{seed}")
    paths = []
    for t, name in enumerate(names):
        path = directory / f"datum{t}-{name.replace(':', '')}.json"
        path.write_text(dump(rebased_datum(name, rng)), encoding="utf-8")
        paths.append(path)
    return paths
