"""The rank-one contact pseudoalgebra and its tensor modules.

The generator e acts on a tensor module V(Pi, U, c) = H (x) R through one
explicit formula involving the distinguished direction, the dual basis,
the projected adjoint (`sp_rep.ad_sp`) and the symplectic generators.
The members of the contact complex are tensor modules too, with Pi and c
shifted as `member_tensor_spec` states.

Action values live in (H (x) H) (x)_H V and are handled in one of two
normal forms (coefficients on the left or on the right slot).  Both read
the Hopf structure only through the memoized image of a unit term,
`Enveloping.left_image`; the right normal form is the left one with the
two legs swapped.  A vector is
singular when the left-normal coefficients of e * v vanish beyond contact
degree two; singular spaces are computed as exact kernels of that
condition over a bounded window, and the reducibility verdict compares
them with the constants.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction

from . import enveloping as env_mod
from . import linalg, pseudoforms, sp_rep
from .enveloping import contact_degree, get_env
from .linalg import Echelon, LinearSystem, vec_iadd, vec_put

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class CarrierColumns:
    """The carrier matrices of the generator formula, column by column.

    Column r of a matrix is a tuple of (row, coefficient) pairs in row
    order, without zeros; rows and columns use the index r = p*dim_u + u
    of the carrier basis.  `first` holds rho_d(e_0) + rho_sp(ad_sp 0),
    `dual[k]` holds rho_d(d^k) + rho_sp(ad_sp k) for k >= 1 (`dual[0]` is
    unused), and `f[(i, j)]` holds rho_f(i, j) where it is nonzero; since
    f^{ij} = f^{ji}, (i, j) and (j, i) share one set of columns."""

    first: tuple
    dual: tuple
    f: dict


def _columns(mat):
    n = len(mat)
    return tuple(
        tuple((i, mat[i][r]) for i in range(n) if mat[i][r])
        for r in range(len(mat[0]))
    )


class _CFreeState:
    """The parts of a tensor module that do not depend on c.

    A spec and every sibling `TensorModuleSpec.at` makes from it hold one
    of these, so each part is built once for all of them: the carrier
    columns, the generator images without the central term, the Casimir
    on U and, once the spec has siblings, the images mod P of the
    singular-space column pairs per cutoff (`residues`).  A standalone
    spec keeps none (`residues` is None).  No exact column is kept:
    `_stream_pairs` rebuilds the ones a `singular_space` check reads."""

    def __init__(self):
        self.carrier = None
        self.generators = {}
        self.casimir = None
        self.residues = None


class TensorModuleSpec:
    """The tensor module V(Pi, U, c): H (x) (Pi [x] U) with central scalar c.

    There is one action formula; complex members reach it through the
    shift stated at `member_tensor_spec`.  It depends on c only through
    the central term c/2 (e_0 (x) 1) (x)_H u_r, which `e_star_raw` adds;
    everything else is kept on a `_CFreeState` that `at` shares.

    The carrier R = Pi (x) U has the basis r = p*dim_u + u.  Its action
    enters the generator formula through the matrices of `CarrierColumns`,
    built once per state on first use and held only as sparse columns;
    `rho_d`, `rho_sp` and `rho_f` are the dense builders behind them.
    """

    def __init__(self, data, twist, sprep, c):
        self.data = data
        self.twist = twist
        self.sprep = sprep
        self.c = Fraction(c)
        self.env = get_env(data)
        self.sp_gens = sp_rep.sp_gens_for(data)
        self.dim_pi = twist.dim_carrier
        self.dim_u = sprep.dim
        self.dim_r = self.dim_pi * self.dim_u
        self._state = _CFreeState()

    def at(self, c):
        """The same (data, twist, U) module at central charge c.

        The result and this spec are siblings: they share one
        `_CFreeState`, and from now on `_residue_pairs` keeps the column
        pairs (m0, m1) mod P on that state, so each sibling's
        `singular_space` only forms m0 + c m1 mod P, and streams the exact
        columns its check reads."""
        twin = copy.copy(self)
        twin.c = Fraction(c)
        if self._state.residues is None:
            self._state.residues = {}
        return twin

    # -- carrier actions ----------------------------------------------------

    def rho_d(self, vec):
        """Action of a Lie algebra element on R (through the Pi factor)."""
        acc = linalg.mat_comb(self.dim_pi, zip(vec, self.twist.mats))
        return linalg.kron(acc, linalg.identity(self.dim_u))

    def rho_sp(self, mat_bar):
        """Action of a symplectic matrix on R (through the U factor)."""
        coords = sp_rep.sp_coordinates(self.data, self.sp_gens, mat_bar)
        acc = linalg.mat_comb(self.dim_u, [
            (c, self.sprep.f(i, j)) for (i, j), c in coords.items()])
        return linalg.kron(linalg.identity(self.dim_pi), acc)

    def rho_f(self, i, j):
        return linalg.kron(linalg.identity(self.dim_pi), self.sprep.f(i, j))

    def carrier(self):
        """The `CarrierColumns` of this spec, built on the first call."""
        state = self._state
        if state.carrier is None:
            data = self.data
            dim = data.dim

            def shifted(vec, k):
                return _columns(linalg.mat_add(
                    self.rho_d(vec), self.rho_sp(sp_rep.ad_sp(data, k))))

            fcols = {}
            for i in range(1, dim):
                for j in range(i, dim):
                    if not linalg.is_zero_matrix(self.sprep.f(i, j)):
                        fcols[(i, j)] = fcols[(j, i)] = _columns(
                            self.rho_f(i, j))
            state.carrier = CarrierColumns(
                first=shifted(data.basis_vector(0), 0),
                dual=(None,) + tuple(shifted(data.dual_vector(k), k)
                                     for k in range(1, dim)),
                f=fcols,
            )
        return state.carrier

    def casimir(self):
        """The Casimir -sum_{ij} f_ij f^{ij} on U, built on the first call;
        on the carrier R it acts on each Pi block of dim_u coordinates."""
        state = self._state
        if state.casimir is None:
            state.casimir = sp_rep.casimir_apply(
                self.data, self.sp_gens, self.sprep)
        return state.casimir

    # -- the defining action on generators ----------------------------------

    def _e_star_generator(self, r):
        """e * (1 (x) u_r) as raw terms, without the central term."""
        cache = self._state.generators
        hit = cache.get(r)
        if hit is not None:
            return hit
        data = self.data
        dim = data.dim
        car = self.carrier()
        zero_i = env_mod.unit_index(dim)
        unit_u = ((r, ONE),)
        epsk = [tuple(env_mod.eps(dim, k)) for k in range(dim)]
        raw = {}

        def put(F, G, J, col, scl=ONE):
            for rr, x in col:
                vec_put(raw, (F, G, (J, rr)), scl * x)

        # the carrier acts plainly (the trace shift of the module is
        # already absorbed into the shape of the formula)
        put(zero_i, zero_i, zero_i, car.first[r])
        put(zero_i, zero_i, epsk[0], unit_u, -ONE)
        for k in range(1, dim):
            put(epsk[k], zero_i, zero_i, car.dual[k][r], -ONE)
            dual = data.dual_vector(k)
            for m in range(1, dim):
                if dual[m]:
                    put(epsk[k], zero_i, epsk[m], unit_u, dual[m])

        # the quadratic symplectic terms psi(u_r); the central term is
        # added by e_star_raw, so that these terms serve every c
        unit_r = tuple(ONE if rr == r else ZERO for rr in range(self.dim_r))
        for (F, rr), x in psi_map(self, unit_r).items():
            vec_put(raw, (F, zero_i, (zero_i, rr)), x)

        cache[r] = raw
        return raw


def element_degree(v):
    """Max contact degree of the coefficient support; -1 for zero."""
    return max((contact_degree(I) for (I, _r) in v), default=-1)


def _put_central(out, dim, v, scl):
    """Add scl (e_0 (x) e^(J)) (x)_H u_r for each (J, r) of v: the central
    term scl (e_0 (x) 1) (x)_H u_r of the generator, extended H-bilinearly
    (e^(J) * 1 = e^(J))."""
    if not scl:
        return out
    eps0 = tuple(env_mod.eps(dim, 0))
    zero = env_mod.unit_index(dim)
    for (J, r), coeff in v.items():
        vec_put(out, (eps0, J, (zero, r)), coeff * scl)
    return out


def _e_star_free(spec, v):
    """The raw action terms of `e_star_raw` without the central term, so
    the same for every c."""
    out = {}
    for (J, r), coeff in v.items():
        base = spec._e_star_generator(r)
        for (F, G, (K, rr)), c in base.items():
            for G2, cg in spec.env.mono_mul(J, G).items():
                key = (F, G2, (K, rr))
                w = out.get(key, ZERO) + coeff * c * cg
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
    return out


def e_star_raw(spec, v):
    """Raw action terms: dict (F, G, (J, r)) -> coefficient, meaning sums
    of (e^(F) (x) e^(G)) (x)_H (e^(J) (x) u_r).  The H-bilinear extension
    multiplies the second tensor slot for module coefficients."""
    return _put_central(_e_star_free(spec, v), spec.data.dim, v, spec.c / 2)


def to_left_normal(env, raw):
    """(f (x) g) (x)_H v = sum (f S(g_(1)) (x) 1) (x)_H g_(2) v."""
    out = {}
    for (F, G, (J, r)), c in raw.items():
        for (Fk, Jk), x in env.left_image(F, G, J):
            vec_put(out.setdefault(Fk, {}), (Jk, r), c * x)
    return {F: t for F, t in out.items() if t}


def to_right_normal(env, raw):
    """(f (x) g) (x)_H v = sum (1 (x) g S(f_(1))) (x)_H f_(2) v: the left
    normal form of the terms with their two legs swapped."""
    return to_left_normal(
        env, {(G, F, v): c for (F, G, v), c in raw.items()})


def is_singular(spec, v):
    """True iff e * v has left-normal coefficients only in contact degree
    at most two; the equivalent right-sided criterion is checked too, and
    a disagreement raises ArithmeticError."""
    raw = e_star_raw(spec, v)
    left = to_left_normal(spec.env, raw)
    ok_left = all(contact_degree(F) <= 2 for F in left)
    right = to_right_normal(spec.env, raw)
    ok_right = all(contact_degree(G) <= 2 for G in right)
    if ok_left != ok_right:
        raise ArithmeticError("left and right singularity criteria disagree")
    return ok_left


def _high_part(env, raw):
    """The left-normal coefficients of raw beyond contact degree two, as
    one sparse vector keyed (F, (J, r))."""
    col = {}
    for F, t in to_left_normal(env, raw).items():
        if contact_degree(F) <= 2:
            continue
        for key, c in t.items():
            col[(F, key)] = c
    return col


def _stream_pairs(spec, cutoff, labels=None):
    """((I, r), m0, m1) for every column of `singular_space`, in column
    order, or only for the labels (I, r) in the set `labels`: m0 is the
    high part of e * (e^(I) (x) u_r) without its central term and m1 that
    of the central term at c = 1, so the column at c is m0 + c m1."""
    env, dim = spec.env, spec.data.dim
    for I in env_mod.contact_indices(dim, cutoff):
        rs = [r for r in range(spec.dim_r)
              if labels is None or (I, r) in labels]
        if not rs:
            continue
        # the central term does not act on u_r: its high part is
        # normalized once per I and relabelled for each r
        central = _high_part(
            env, _put_central({}, dim, {(I, 0): ONE}, ONE / 2))
        for r in rs:
            m0 = _high_part(env, _e_star_free(spec, {(I, r): ONE}))
            m1 = {(F, (J, r)): x for (F, (J, _r)), x in central.items()}
            yield (I, r), m0, m1


def _residue_pairs(spec, cutoff):
    """((I, r), m0 mod P, m1 mod P) for each pair of `_stream_pairs`, with
    None for a half that has no image mod P.  A spec with siblings keeps
    the list on its shared state, once per cutoff; a standalone spec gets
    a generator and keeps nothing."""
    pairs = ((label, linalg.vec_mod(m0), linalg.vec_mod(m1))
             for label, m0, m1 in _stream_pairs(spec, cutoff))
    kept = spec._state.residues
    if kept is None:
        return pairs
    if cutoff not in kept:
        kept[cutoff] = list(pairs)
    return kept[cutoff]


def singular_space(spec, cutoff=None):
    """Exact basis of the singular vectors with coefficient contact degree
    bounded by the cutoff (2 when the symplectic action is nontrivial,
    3 otherwise, following the degree bound for proper submodules).

    The singular vectors are the kernel of the columns m0 + c m1 of
    `_stream_pairs`, found by `linalg.modular_kernel`: it eliminates the
    columns modulo the prime P = 2^61 - 1, lifts each kernel vector to Q
    by rational reconstruction and checks it exactly against the rational
    columns of its support, eliminating over Q only when that fails.  Its
    docstring shows why the result is always the list
    `LinearSystem.kernel` gives over Q, so reports do not depend on the
    path.

    The residues are streamed for a standalone spec and kept for one with
    siblings (see `TensorModuleSpec.at`).  The exact columns are always
    streamed: those of the lifted kernel's support, or all of them on the
    exact fallback.  The basis vectors are dicts (I, r) -> coefficient."""
    if cutoff is None:
        cutoff = default_cutoff(spec)
    c = spec.c
    c_mod = linalg.to_mod(c)

    def residues():
        for label, m0, m1 in _residue_pairs(spec, cutoff):
            if c_mod is None or m0 is None or m1 is None:
                yield label, None
            else:
                yield label, linalg.GF_P.iadd(dict(m0), m1, c_mod)

    def columns(labels):
        for label, m0, m1 in _stream_pairs(spec, cutoff, labels):
            yield label, vec_iadd(m0, m1, c)

    return linalg.modular_kernel(residues(), columns), cutoff


def default_cutoff(spec):
    nontrivial = any(
        not linalg.is_zero_matrix(m) for (_k, m) in spec.sprep.fmats
    )
    return 2 if nontrivial else 3


def filtration_dims(basis, cutoff):
    """dim(span cap Fil^d) for d = 0..cutoff, computed exactly.

    Each key (I, r) is taken as (-contact_degree(I), (I, r)), so the
    echelon form pivots each row on a key of highest contact degree: every
    other key of a row has contact degree at most its pivot's.  The pivots
    are distinct, so a vector of the span lies in Fil^d exactly when it
    combines rows of pivot degree at most d, and those rows count
    dims[d]."""
    ech = Echelon()
    for vec in basis:
        ech.add({(-contact_degree(key[0]), key): c for key, c in vec.items()})
    degrees = [-g for g, _key in ech.rows]
    return [sum(1 for g in degrees if g <= d) for d in range(cutoff + 1)]


@dataclass(frozen=True)
class Verdict:
    reducible: bool
    degrees: tuple  # contact degrees (>= 1) where new singular vectors appear
    singular_dim: int
    constant_dim: int
    cutoff: int

    def label(self):
        if not self.reducible:
            return "irreducible"
        return "reducible at degrees " + ",".join(map(str, self.degrees))


def classify(spec, cutoff=None):
    return verdict_of(spec, *singular_space(spec, cutoff))


def verdict_of(spec, basis, used):
    """The verdict on a singular-space basis computed at cutoff `used`."""
    dims = filtration_dims(basis, used)
    degrees = tuple(
        d for d in range(1, used + 1) if dims[d] > dims[d - 1]
    )
    return Verdict(
        reducible=len(basis) > spec.dim_r,
        degrees=degrees,
        singular_dim=len(basis),
        constant_dim=spec.dim_r,
        cutoff=used,
    )


def expected_verdict(kind, p, c, nn):
    """The classification rule being verified: with a trivial symplectic
    factor the module is reducible exactly at central charge 0 (degree-1
    vectors); with the p-th fundamental factor exactly at c = p and
    c = 2N+2-p, with degree-2 vectors exactly at (p, c) = (N, N)."""
    if kind == "trivial":
        return (c == 0, (1,) if c == 0 else ())
    if kind == "fundamental":
        if c == p and p == nn:
            return (True, (2,))
        if c in (p, 2 * nn + 2 - p):
            return (True, (1,))
        return (False, ())
    return (False, ())


def expected_nonconstant_dim(kind, p, c, nn):
    """Predicted dimension of the nonconstant singular space per unit of
    the twisting factor at a reducible point (None when irreducible):
    the images of the constants of the neighbouring complex member, i.e.
    the whole barred space for a trivial symplectic factor and the
    adjacent fundamental representation otherwise."""
    reducible, degrees = expected_verdict(kind, p, c, nn)
    if not reducible:
        return None
    if kind == "trivial":
        return 2 * nn
    if degrees == (2,):
        return sp_rep.fundamental_dim(nn, nn)
    return sp_rep.fundamental_dim(nn, p + 1 if c == p else p - 1)


# ---------------------------------------------------------------------------
# annihilation-side operators on module elements


def fourier_act(spec, x, v):
    """Action of the Fourier coefficient x (x)_H e on a module element,
    through the left-normal coefficients: sum_F <x, S(e^(F))> w_F."""
    env = spec.env
    left = to_left_normal(env, e_star_raw(spec, v))
    out = {}
    for F, t in left.items():
        pairing = env.dual_pair(x, env.antipode_basis(F))
        if pairing:
            for key, c in t.items():
                vec_put(out, key, pairing * c)
    return out


def rho_sing_iprime(spec, v):
    """Action of the grading element on a singular vector, through the
    quadratic Fourier coefficients: minus the action of the one functional
    2 x^0 + sum_{i<j} omega_ij x^i x^j, as `fourier_act` is linear in it."""
    data = spec.data
    dim = data.dim
    eps = [env_mod.eps(dim, i) for i in range(dim)]
    coeffs = {eps[0]: 2}
    for i in range(1, dim):
        for j in range(i + 1, dim):
            coeffs[env_mod.add_index(eps[i], eps[j])] = data.omega[i][j]
    x = env_mod.DualElement(dim, 4, coeffs)
    return {k: -c for k, c in fourier_act(spec, x, v).items()}


# ---------------------------------------------------------------------------
# structural checks


def psi_map(spec, u_vec):
    """psi(u) = sum_{ij} e_i e_j (x) f^{ij} u as a module element."""
    env = spec.env
    dim = spec.data.dim
    fcols = spec.carrier().f
    support = [(r, x) for r, x in enumerate(u_vec) if x]
    out = {}
    for i in range(1, dim):
        for j in range(1, dim):
            cols = fcols.get((i, j))
            if cols is None:
                continue
            fu = [ZERO] * spec.dim_r
            for r, x in support:
                for rr, y in cols[r]:
                    fu[rr] += x * y
            if not any(fu):
                continue
            prod = env.mono_mul(tuple(env_mod.eps(dim, i)),
                                tuple(env_mod.eps(dim, j)))
            for K, ck in prod.items():
                for r, x in enumerate(fu):
                    if x:
                        vec_put(out, (K, r), ck * x)
    return out


def coefficient_lemma_check(spec, v):
    """For a singular v, the right-normal coefficient against 1 (x) e^(I)
    equals psi(v_I) up to terms of plain coefficient degree <= 1."""
    env = spec.env
    right = to_right_normal(env, e_star_raw(spec, v))
    vcomp = {}
    for (I, r), c in v.items():
        vcomp.setdefault(I, {})[r] = c
    support = set(vcomp) | set(right)
    for I in support:
        u_vec = tuple(
            vcomp.get(I, {}).get(r, ZERO) for r in range(spec.dim_r)
        )
        want = psi_map(spec, u_vec)
        got = right.get(I, {})
        keys = {k for k in want if sum(k[0]) >= 2} | {
            k for k in got if sum(k[0]) >= 2
        }
        for key in keys:
            if want.get(key, ZERO) != got.get(key, ZERO):
                return False
    return True


def degree2_structure_check(spec, v, p):
    """For a degree-two singular vector: extract u from the quadratic part
    through psi, then verify the two coefficient identities and the
    quadratic constraint on the central scalar.

    Returns (ok, details)."""
    data = spec.data
    nn = data.N
    if not is_singular(spec, v):
        return False, {"reason": "vector is not singular"}
    quad = {key: c for key, c in v.items() if sum(key[0]) == 2
            and key[0][0] == 0}
    sys = LinearSystem()
    for r in range(spec.dim_r):
        unit_u = tuple(ONE if i == r else ZERO for i in range(spec.dim_r))
        col = {key: c for key, c in psi_map(spec, unit_u).items()
               if sum(key[0]) == 2 and key[0][0] == 0}
        sys.add_column(r, col)
    sol = sys.solve(quad)
    if sol is None:
        return False, {"reason": "quadratic part is not of symplectic type"}
    u_vec = tuple(sol.get(r, ZERO) for r in range(spec.dim_r))
    eps0 = tuple(env_mod.eps(data.dim, 0))
    # psi(u) itself carries a e_0 component through straightening; v_0 is
    # the e_0 coefficient of the remainder v - psi(u)
    psi_u = psi_map(spec, u_vec)
    v0 = tuple(
        v.get((eps0, r), ZERO) - psi_u.get((eps0, r), ZERO)
        for r in range(spec.dim_r)
    )
    want_v0 = tuple((spec.c / 2 - nn - 1) * x for x in u_vec)
    ok_v0 = v0 == want_v0
    # c v_0 = sum_ab f_ab f^{ab} (u): the negative of the Casimir
    cas, du = spec.casimir(), spec.dim_u
    rhs = tuple(-x for p0 in range(0, spec.dim_r, du)
                for x in linalg.mat_vec(cas, u_vec[p0:p0 + du]))
    ok_cas = tuple(spec.c * x for x in v0) == rhs
    if any(u_vec):
        quadratic = spec.c ** 2 - (2 * nn + 2) * spec.c + p * (2 * nn + 2 - p)
        ok_quad = quadratic == 0
    else:
        ok_quad = True
    details = {
        "u_is_zero": not any(u_vec),
        "v0_identity": ok_v0,
        "casimir_identity": ok_cas,
        "quadratic": ok_quad,
    }
    return ok_v0 and ok_cas and ok_quad, details


# ---------------------------------------------------------------------------
# skewness and Jacobi identity of the pseudobracket action


def bracket_element(data):
    """r + s (x) 1 - 1 (x) s as a dict (I, J) -> coefficient."""
    dim = data.dim
    out = {}
    zero = env_mod.unit_index(dim)
    eps0 = tuple(env_mod.eps(dim, 0))
    for i in range(1, dim):
        for j in range(1, dim):
            if data.rmat[i][j]:
                out[(tuple(env_mod.eps(dim, i)), tuple(env_mod.eps(dim, j)))] = (
                    data.rmat[i][j]
                )
    out[(eps0, zero)] = out.get((eps0, zero), ZERO) + ONE
    out[(zero, eps0)] = out.get((zero, eps0), ZERO) - ONE
    return {k: v for k, v in out.items() if v}


def skewness_check(data):
    """The defining bracket coefficient is skew under the flip."""
    g = bracket_element(data)
    flipped = {(J, I): -c for (I, J), c in g.items()}
    return g == flipped


def jacobi_check(spec):
    """The Jacobi defect of the generator acting twice on each degree-0
    generator 1 (x) u_r of the module, as a polynomial in c.

    e * w = A w + c B w, with A the c-free terms (`_e_star_free`) and B
    the central term at c = 1, so each coefficient of the defect, all
    three terms in left-normal position, is d0 + c d1 + c^2 d2.  Returns
    the triples (d0, d1, d2) that are not all zero, gathered one u_r at a
    time: the identity holds at c iff every triple vanishes at c."""
    env, dim = spec.env, spec.data.dim
    g = bracket_element(spec.data)

    def act(w):
        return (to_left_normal(env, _e_star_free(spec, w)),
                to_left_normal(env, _put_central({}, dim, w, ONE / 2)))

    triples, defect = [], {}

    def put(key, vk, power, x):
        defect.setdefault((key, vk), [ZERO, ZERO, ZERO])[power] += x

    for r in range(spec.dim_r):
        for p1, left1 in enumerate(act({(env_mod.unit_index(dim), r): ONE})):
            for F, w in left1.items():
                # g . D(e^(F)) in H (x) H, tensored with w_F
                for key, cg in env.tensor_mul(
                        g, env.coproduct({F: ONE})).items():
                    for vk, x in w.items():
                        put(key, vk, p1, cg * x)
                # minus e * (e * v) at (f' (x) f (x) 1), plus the legs
                # swapped
                for p2, inner in enumerate(act(w)):
                    for F2, t in inner.items():
                        for vk, x in t.items():
                            put((F2, F), vk, p1 + p2, -x)
                            put((F, F2), vk, p1 + p2, x)
        triples += [tuple(d) for d in defect.values() if any(d)]
        defect.clear()
    return triples


# ---------------------------------------------------------------------------
# the gl-valued part of the embedding into the derivation pseudoalgebra


def _gl_sum(dim, terms):
    """Sum the (multi-index, coefficient, gl(d) matrix) terms per
    multi-index with `linalg.mat_comb`; zero sums are dropped."""
    by_index = {}
    for I, c, mat in terms:
        by_index.setdefault(I, []).append((c, mat))
    sums = {I: linalg.mat_comb(dim, cms) for I, cms in by_index.items()}
    return {I: m for I, m in sums.items() if not linalg.is_zero_matrix(m)}


def _quadratic(env, i, j, mat, scl):
    """The terms of scl e_i e_j (x) mat, straightened."""
    dim = env.dim
    prod = env.mono_mul(tuple(env_mod.eps(dim, i)), tuple(env_mod.eps(dim, j)))
    return [(K, scl * ck, mat) for K, ck in prod.items()]


def tau_of_e(data):
    """The gl-valued component of the image of e inside the semidirect
    extension: tau(h (x) e_i) = h (x) ad e_i + sum_j h e_j (x) e_i^j,
    applied to e = 1 (x) e_0 - sum_i e_i (x) d^i.  Returns a dict
    multi-index -> gl(d) matrix."""
    env = get_env(data)
    dim = data.dim
    terms = [(env_mod.unit_index(dim), ONE, data.ad_matrix(0))]
    terms += [(tuple(env_mod.eps(dim, j)), ONE, linalg.elementary(dim, 0, j))
              for j in range(dim)]
    for i in range(1, dim):
        # - e_i (x) ad d^i - sum_j e_i e_j (x) e^{ij}
        terms.append((tuple(env_mod.eps(dim, i)), -ONE,
                      sp_rep.ad_dual(data, i)))
        for j in range(dim):
            terms += _quadratic(env, i, j, sp_rep.e_raised_full(data, i, j),
                                -ONE)
    return _gl_sum(dim, terms)


def adsp_full(data, k):
    """ad d^k - e_0^k + (1/2) sum c_ij^k e^{ij} as a full gl(d) matrix.

    The row-0 entries cancel exactly; the barred block is the symplectic
    projection `sp_rep.ad_sp`, and what remains is a column-0 part valued
    in the abelian ideal spanned by the e_m^0 (the image of the
    distinguished direction under the adjoint)."""
    dim = data.dim
    if k == 0:
        return data.ad_matrix(0)
    acc = linalg.mat_comb(dim, [
        (ONE, sp_rep.ad_dual(data, k)),
        (-ONE, linalg.elementary(dim, 0, k)),
    ] + [(Fraction(data.c[i][j][k], 2), sp_rep.e_raised_full(data, i, j))
         for i in range(1, dim) for j in range(1, dim)])
    if any(acc[0][j] != 0 for j in range(dim)):  # pragma: no cover
        raise ArithmeticError("row-0 entries of adsp did not cancel")
    bar = tuple(tuple(row[1:]) for row in acc[1:])
    if bar != sp_rep.ad_sp(data, k):  # pragma: no cover
        raise ArithmeticError("barred block disagrees with the projection")
    return acc


def tau_rhs(data):
    """The displayed closed form: (id (x) adsp)(e) + (1/2) e_0 (x) I'
    - sum_i e_i e_0 (x) e^{i0} + sum_ij e_i e_j (x) f^{ij}, with adsp the
    full gl(d) matrix of `adsp_full`."""
    env = get_env(data)
    dim = data.dim
    gens = sp_rep.sp_gens_for(data)
    terms = [(env_mod.unit_index(dim), ONE, adsp_full(data, 0))]
    terms += [(tuple(env_mod.eps(dim, i)), -ONE, adsp_full(data, i))
              for i in range(1, dim)]
    terms.append((tuple(env_mod.eps(dim, 0)), Fraction(1, 2), gens.i_prime))
    for i in range(1, dim):
        terms += _quadratic(env, i, 0, sp_rep.e_raised_full(data, i, 0), -ONE)
    for i in range(1, dim):
        for j in range(1, dim):
            terms += _quadratic(env, i, j,
                                sp_rep.embed_bar(data, gens.f(i, j)), ONE)
    return _gl_sum(dim, terms)


def in_cz_csp(data, mat):
    """Membership in the semidirect sum of the abelian column algebra and
    the centrally extended symplectic algebra."""
    dim = data.dim
    for j in range(1, dim):
        if mat[0][j] != 0:
            return False
    a = mat[0][0] / 2
    bar = tuple(
        tuple(mat[i][j] - (a if i == j else 0) for j in range(1, dim))
        for i in range(1, dim)
    )
    return sp_rep.is_symplectic_matrix(data, bar)


def tau_check(data):
    lhs = tau_of_e(data)
    rhs = tau_rhs(data)
    if lhs != rhs:
        return False
    return all(in_cz_csp(data, m) for m in lhs.values())


# ---------------------------------------------------------------------------
# module homomorphisms and the twisted complex


def member_tensor_spec(data, member, twist=None):
    """The tensor module whose carrier realizes a complex member.

    The member acts on its carrier through the plain action T(Pi, U, c) of
    the generator e = 1 (x) e_0 - sum e_i (x) d^i, with c its natural
    central scalar.  The plain and the tensor-module actions are tied by
    V(Pi, U, c) = T(Pi (x) k_{tr ad}, U, c - 2N - 2), so the member is
    V(Pi (x) k_{-tr ad}, U, c + 2N + 2): Pi shifted by minus the trace
    character, c by 2N + 2."""
    gens = sp_rep.sp_gens_for(data)
    rep = sp_rep.form_rep(data, gens, member.basis, member.form_coords)
    tv = twist if twist is not None else pseudoforms.trivial_twist(data)
    tv = pseudoforms.twist_times_character(tv, [-x for x in data.trace_ad])
    return TensorModuleSpec(data, tv, rep, member.natural_c + 2 * data.N + 2)


def homomorphism_check(src_spec, tgt_spec, hmat):
    """The intertwining condition on degree-0 generators: pushing the
    action through the map equals acting after the map."""
    env = src_spec.env
    zero = env_mod.unit_index(src_spec.data.dim)
    for r in range(src_spec.dim_r):
        v = {(zero, r): ONE}
        lhs_raw = {}
        for (F, G, (J, rr)), c in e_star_raw(src_spec, v).items():
            img = pseudoforms.apply_hmat(env, hmat, {(J, rr): c})
            for (K, r2), c2 in img.items():
                vec_put(lhs_raw, (F, G, (K, r2)), c2)
        rhs_v = pseudoforms.apply_hmat(env, hmat, v)
        rhs_raw = e_star_raw(tgt_spec, rhs_v)
        if to_left_normal(env, lhs_raw) != to_left_normal(env, rhs_raw):
            return False
    return True


def complex_homomorphism_check(specs, hmats, position):
    """For the map hmats[position] of a contact complex whose members are
    the tensor modules specs, hmats[i] mapping specs[i] to specs[i+1]:
    the intertwining condition on degree-0 generators, vanishing of the
    composition with the adjacent map, and singularity of the generator
    images in the target."""
    env = specs[position].env
    if not homomorphism_check(specs[position], specs[position + 1],
                              hmats[position]):
        return False
    if position + 1 < len(hmats):
        comp = pseudoforms.compose_hmats(env, hmats[position],
                                         hmats[position + 1])
        if not pseudoforms.hmat_is_zero(comp):
            return False
    zero = env_mod.unit_index(specs[position].data.dim)
    for r in range(specs[position].dim_r):
        img = pseudoforms.apply_hmat(env, hmats[position], {(zero, r): ONE})
        if img and not is_singular(specs[position + 1], img):
            return False
    return True
