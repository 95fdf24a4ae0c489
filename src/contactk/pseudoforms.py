"""Differential forms with enveloping-algebra coefficients.

A pseudoform of degree n is a sparse dict mapping (multi-index, increasing
index tuple) pairs to rationals, representing sums of e^(I) (x) x^S inside
H (x) W^n.  The differential follows the Lie algebra cohomology formula
for H as a right module over itself: the bracket terms act on the form
slot and the remaining terms multiply the coefficient on the right by a
basis vector.  It is H-linear for the left multiplication, squares to
zero exactly, and differs from the coefficientwise constant differential
by wedging with the tautological 1-form eps = sum_i e_i (x) x^i:

    (d - d0) alpha = -(-1)^n alpha ^ eps,      n = deg alpha,

where the wedge multiplies coefficients in the order written (the
H-coefficient of the left factor first).  The name eps is reserved for
this 1-form; the counit of the Hopf structure is `Enveloping.counit`.

The module also realizes the members of the contact reduction
  0 -> W^0/I^0 (d) -> ... -> W^N/I^N (d) -> K^{N+1}(d) -> ... -> K^{2N+1}(d)
as free modules over concrete carriers (standard monomials for the
quotients, primitive kernels for the K's), extracts the differentials as
matrices over H, builds the second-order Rumin map by completion, reads
the constant-coefficient complex off those matrices as their counit,
twists everything by a finite-dimensional module, and checks exactness
exactly on a window of coefficient degrees.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import enveloping as env_mod
from . import exterior, linalg
from .exterior import derive, form, merge, monomials
from .linalg import LinearSystem, vec_iadd, vec_put

ZERO = Fraction(0)
ONE = Fraction(1)


class SolveFailure(ArithmeticError):
    """The Rumin completion system was inconsistent (internal bug)."""


class PseudoForm(exterior.Graded):
    """A pseudoform; keys are pairs (I, S) of a multi-index and an
    increasing index tuple."""

    @staticmethod
    def build(degree, coeffs):
        return pform(degree, coeffs)


def pform(degree, coeffs):
    clean = []
    for (I, S), v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
        v = Fraction(v)
        if v:
            clean.append(((tuple(I), tuple(S)), v))
    return PseudoForm(degree, tuple(sorted(clean)))


def pf_from_form(dim, a):
    """1 (x) alpha for a constant form alpha."""
    zero = env_mod.unit_index(dim)
    return pform(a.degree, {(zero, S): c for S, c in a.items()})


def pf_component(a, I):
    """The constant form paired with e^(I)."""
    return form(a.degree, {S: c for (J, S), c in a.items() if J == I})


def pf_h_support(a):
    return sorted({I for (I, _S), _c in a.items()})


def h_mul_pf(env, h, a):
    """Left multiplication of the coefficient slot."""
    out = {}
    for (I, S), c in a.items():
        for K, ck in env.mul(h, {I: ONE}).items():
            vec_put(out, (K, S), c * ck)
    return pform(a.degree, out)


def _d0_terms(data, a):
    """The terms of the constant differential d0 applied coefficient by
    coefficient, scattered from the terms of a: a dict (I, T) -> c."""
    image = exterior.d0_image(data)
    out = {}
    for (I, S), c in a.items():
        for T, cd in derive(S, image):
            vec_put(out, (I, T), cd * c)
    return out


def pseudo_d(env, a):
    """The pseudo de Rham differential: d0 on each coefficient plus the
    right multiplications of the coefficients by basis vectors."""
    data = env.data
    out = _d0_terms(data, a)
    for (I, S), c in a.items():
        for m in range(data.dim):
            hit = merge((m,), S)
            if hit is None:
                continue
            sign, T = hit
            prod = env.mul({I: ONE}, env_mod.generator(data.dim, m))
            for K, ck in prod.items():
                vec_put(out, (K, T), -sign * c * ck)  # (-1)^position, 1-based
    return pform(a.degree + 1, out)


def d0_h(env, a):
    """H-linear extension of the constant differential."""
    return pform(a.degree + 1, _d0_terms(env.data, a))


def eps_pseudoform(dim):
    """eps = sum_i e_i (x) x^i; d(1) = -eps."""
    terms = {}
    for i in range(dim):
        I = [0] * dim
        I[i] = 1
        terms[(tuple(I), (i,))] = ONE
    return pform(1, terms)


def wedge_pseudo(env, a, b):
    """(f alpha) ^ (g beta) = (fg)(alpha ^ beta), coefficients multiplied
    in the order written."""
    out = {}
    for (I, S), c in a.items():
        for (J, T), e in b.items():
            hit = merge(S, T)
            if hit is None:
                continue
            sign, U = hit
            for K, ck in env.mono_mul(I, J).items():
                vec_put(out, (K, U), sign * c * e * ck)
    return pform(a.degree + b.degree, out)


def wedge_const(env, a_const, b):
    """Wedge with a constant form on the left; no coefficient reordering."""
    out = {}
    for (I, S), c in b.items():
        for T, ct in a_const.items():
            hit = merge(T, S)
            if hit is not None:
                vec_put(out, (I, hit[1]), hit[0] * c * ct)
    return pform(a_const.degree + b.degree, out)


def theta_mul_p(env, a):
    return wedge_const(env, exterior.theta_form(env.data), a)


def omega_mul_p(env, a):
    return wedge_const(env, exterior.omega_form(env.data), a)


def in_K_pseudo(env, a):
    return theta_mul_p(env, a).is_zero() and omega_mul_p(env, a).is_zero()


def relations_check(env, degree_bound=2):
    """d Psi = Psi d and d Theta = Psi - Theta d on a spanning set with
    coefficient degree up to the bound, in every form degree."""
    data = env.data
    for n in range(data.dim + 1):
        for I in env_mod.multi_indices(data.dim, degree_bound):
            for S in monomials(data.dim, n):
                a = pform(n, {(I, S): ONE})
                if not (
                    pseudo_d(env, omega_mul_p(env, a))
                    == omega_mul_p(env, pseudo_d(env, a))
                ):
                    return False
                lhs = pseudo_d(env, theta_mul_p(env, a))
                rhs = omega_mul_p(env, a) - theta_mul_p(env, pseudo_d(env, a))
                if lhs != rhs:
                    return False
    return True


def rumin_map(env, a, reverse=False):
    """Second-order map on degree-N pseudoforms: write d(alpha) as
    theta^beta + omega^gamma, correct alpha by theta^gamma, and
    differentiate.  The completion solves the constant system for each
    coefficient separately; the result is independent of the pivoting
    order and vanishes on H (x) I^N."""
    data = env.data
    nn = data.N
    if a.degree != nn:
        raise ValueError(f"the Rumin map acts on degree {nn}, "
                         f"not {a.degree}")
    da = pseudo_d(env, a)
    gamma_terms = {}
    for I in pf_h_support(da):
        comp = pf_component(da, I)
        try:
            _beta, gamma = exterior.solve_theta_omega(
                data, nn + 1, comp, reverse=reverse
            )
        except ValueError as exc:  # pragma: no cover - always consistent
            raise SolveFailure(str(exc)) from exc
        for S, c in gamma.items():
            gamma_terms[(I, S)] = c
    gamma_pf = pform(nn - 1, gamma_terms)
    out = pseudo_d(env, a - theta_mul_p(env, gamma_pf))
    if not in_K_pseudo(env, out):  # pragma: no cover - structural guarantee
        raise SolveFailure("completion left the primitive subspace")
    return out


# ---------------------------------------------------------------------------
# twisting data


class TwistData:
    """A finite-dimensional module over the Lie algebra, with the induced
    action of the whole enveloping algebra."""

    def __init__(self, data, mats):
        self.data = data
        self.mats = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in m) for m in mats
        )
        if len(self.mats) != data.dim:
            raise ValueError("one matrix per basis vector required")
        self.dim_carrier = len(self.mats[0])
        for i in range(data.dim):
            for j in range(data.dim):
                lhs = linalg.commutator(self.mats[i], self.mats[j])
                rhs = linalg.mat_comb(self.dim_carrier, [
                    (c, self.mats[k]) for k, c in data.bracket_basis(i, j)])
                if lhs != rhs:
                    raise ValueError(
                        f"matrices do not satisfy the bracket at ({i},{j})"
                    )
        self._pbw = {}

    def act_basis(self, I):
        """Matrix of the divided power e^(I)."""
        hit = self._pbw.get(I)
        if hit is not None:
            return hit
        acc = linalg.identity(self.dim_carrier)
        denom = 1
        for g, power in enumerate(I):
            for _ in range(power):
                acc = linalg.mat_mul(acc, self.mats[g])
            denom *= math.factorial(power)
        out = linalg.mat_scale(acc, Fraction(1, denom))
        self._pbw[I] = out
        return out

    def act(self, h):
        return linalg.mat_comb(self.dim_carrier, [
            (c, self.act_basis(I)) for I, c in h.items()])


def trivial_twist(data):
    return TwistData(data, [((ZERO,),) for _ in range(data.dim)])


def character_twist(data, values):
    return TwistData(data, [((Fraction(v),),) for v in values])


def trace_character_twist(data):
    """The 1-dimensional module given by the trace of the adjoint."""
    return character_twist(data, data.trace_ad)


def twist_times_character(twist, values):
    """Tensor a module with a character: shift each matrix by a scalar."""
    mats = []
    for m, v in zip(twist.mats, values):
        mats.append(linalg.mat_add(m, linalg.mat_scale(
            linalg.identity(twist.dim_carrier), Fraction(v))))
    return TwistData(twist.data, mats)


# ---------------------------------------------------------------------------
# carrier realization of the contact complex


@dataclass
class CarrierModule:
    """A member of the contact complex as a free module H (x) carrier."""

    data: object
    kind: str  # "quotient" or "kernel"
    degree: int
    basis: tuple  # constant forms representing the carrier basis
    natural_c: Fraction

    def __post_init__(self):
        if self.kind == "kernel":
            sys = LinearSystem()
            for k, f in enumerate(self.basis):
                sys.add_column(k, f.as_dict())
            self._sys = sys
            self._iech = None
        else:
            self._iech = exterior.compute_I(self.data, self.degree)
            self._keys = [next(iter(f.as_dict())) for f in self.basis]
            self._sys = None

    @property
    def dim(self):
        return len(self.basis)

    def form_coords(self, const_form):
        """Coordinates of a constant form in the carrier (reducing mod I
        for quotients)."""
        if self.kind == "kernel":
            sol = self._sys.solve(const_form.as_dict())
            if sol is None:
                raise ValueError("form does not lie in the kernel carrier")
            return sol
        red = self._iech.reduce(const_form.as_dict())
        out = {}
        for key, c in red.items():
            out[self._keys.index(key)] = c
        return out

    def element_coords(self, pf):
        """Coordinates of a pseudoform: dict (I, idx) -> coefficient."""
        out = {}
        for I in pf_h_support(pf):
            for idx, c in self.form_coords(pf_component(pf, I)).items():
                if c:
                    out[(I, idx)] = c
        return out


def contact_complex_members(data):
    nn = data.N
    members = []
    for n in range(nn + 1):
        ech = exterior.compute_I(data, n)
        keys = exterior.standard_keys(data, n, ech)
        basis = tuple(form(n, {k: ONE}) for k in keys)
        members.append(
            CarrierModule(data, "quotient", n, basis, Fraction(-n))
        )
    for n in range(nn + 1, 2 * nn + 2):
        basis = tuple(exterior.compute_K(data, n))
        members.append(
            CarrierModule(data, "kernel", n, basis, Fraction(-n - 1))
        )
    return members


def contact_complex_hmats(env, members):
    """The differentials as H-matrices: maps[i] is a dict
    (src_idx, tgt_idx) -> H element, with the Rumin map in the middle."""
    data = env.data
    nn = data.N
    maps = []
    for i in range(len(members) - 1):
        src, tgt = members[i], members[i + 1]
        hmat = {}
        for s_idx, f in enumerate(src.basis):
            pf = pf_from_form(data.dim, f)
            if src.kind == "quotient" and tgt.kind == "kernel":
                img = rumin_map(env, pf)
            else:
                img = pseudo_d(env, pf)
            for (I, t_idx), c in tgt.element_coords(img).items():
                vec_put(hmat.setdefault((s_idx, t_idx), {}), I, c)
        maps.append({k: v for k, v in hmat.items() if v})
    return maps


@dataclass
class ConstantRuminComplex:
    """The constant contact complex: the member dimensions and the maps,
    maps[i] a list of columns, column s a dict {t: coefficient}."""

    dims: list
    maps: list

    def cohomology_dims(self):
        ranks = []
        for cols in self.maps:
            sys = LinearSystem()
            for s_idx, col in enumerate(cols):
                sys.add_column(s_idx, col)
            ranks.append(sys.image_rank())
        return [dim - out - inc for dim, inc, out
                in zip(self.dims, [0] + ranks, ranks + [0])]

    def compositions_vanish(self):
        for cols, nxt in zip(self.maps, self.maps[1:]):
            for col in cols:
                acc = {}
                for t_idx, c in col.items():
                    vec_iadd(acc, nxt[t_idx], c)
                if acc:
                    return False
        return True


def constant_complex(members, hmats):
    """The constant-coefficient contact complex as the counit of the
    H-matrix complex: column s of map i holds the coefficient of e^(0) in
    each entry hmats[i][(s, t)].

    The counit is an algebra map that kills eps, which has H-degree one,
    so by (d - d0) alpha = -(-1)^n alpha ^ eps it takes d to d0; the
    completion of `rumin_map` solves the constant theta/omega system
    coefficient by coefficient, so its e^(0) part is the constant
    completion of d0."""
    zero = env_mod.unit_index(members[0].data.dim)
    maps = []
    for src, hmat in zip(members, hmats):
        cols = [{} for _ in range(src.dim)]
        for (s_idx, t_idx), h in hmat.items():
            if h.get(zero):
                cols[s_idx][t_idx] = h[zero]
        maps.append(cols)
    return ConstantRuminComplex([m.dim for m in members], maps)


def apply_hmat(env, hmat, vec):
    """Apply an H-matrix map to an element dict (I, idx) -> c of the free
    source module; H acts by left multiplication."""
    out = {}
    for (I, idx), c in vec.items():
        for (s_idx, t_idx), h in hmat.items():
            if s_idx != idx:
                continue
            for K, ck in env.mul({I: c}, h).items():
                vec_put(out, (K, t_idx), ck)
    return out


def compose_hmats(env, first, then):
    """H-matrix of x -> then(first(x))."""
    out = {}
    for (i, j), h1 in first.items():
        for (j2, k), h2 in then.items():
            if j2 != j:
                continue
            prod = env.mul(h1, h2)
            acc = out.setdefault((i, k), {})
            linalg.vec_iadd(acc, prod)
    return {k: v for k, v in out.items() if v}


def hmat_is_zero(hmat):
    return all(not h for h in hmat.values())


def twist_hmat(env, twist, hmat, src_dim, tgt_dim):
    """Twist a map between free modules by a module Pi: on generators,
    1 (x) u (x) v_i goes to sum h_(1) (x) S(h_(2))u (x) v_j.  Carrier
    indices are flattened with the Pi index major."""
    p = twist.dim_carrier
    out = {}
    for (i, j), h in hmat.items():
        for (J, K), c in env.coproduct(h).items():
            smat = twist.act(env.antipode_basis(K))
            for a in range(p):
                for b in range(p):
                    if not smat[b][a]:
                        continue
                    key = (a * src_dim + i, b * tgt_dim + j)
                    vec_put(out.setdefault(key, {}), J, c * smat[b][a])
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# exactness on a window


def _window_basis(dim, carrier_dim, max_plain):
    out = []
    for I in env_mod.multi_indices(dim, max_plain):
        for idx in range(carrier_dim):
            out.append((I, idx))
    return out


def sample_exactness(env, members, hmats, term, degree_bound):
    """Check exactness at an interior term on the whole window: every
    cocycle with coefficient degree <= degree_bound - 2 has a preimage
    with coefficient degree <= degree_bound.

    The check is exact, not sampled: each basis vector of the cocycle
    kernel in the window is solved for in the span of the incoming images,
    and the preimage is verified with `apply_hmat`.  Returns a report
    dict whose `failures` name the kernel vectors without a preimage; the
    term is exact in the window when that list is empty.
    """
    if not 1 <= term <= len(members) - 2:
        raise ValueError(f"term {term} is not interior to a complex of "
                         f"{len(members)} members")
    data = env.data
    outgoing = hmats[term]
    incoming = hmats[term - 1]

    cocycle_sys = LinearSystem()
    for key in _window_basis(data.dim, members[term].dim, degree_bound - 2):
        cocycle_sys.add_column(key, apply_hmat(env, outgoing, {key: ONE}))
    kernel = cocycle_sys.kernel()

    preimage_sys = LinearSystem()
    for key in _window_basis(data.dim, members[term - 1].dim, degree_bound):
        preimage_sys.add_column(key, apply_hmat(env, incoming, {key: ONE}))

    failures = []
    for k, vec in enumerate(kernel):
        sol = preimage_sys.solve(vec)
        if sol is None:
            failures.append({"kernel_vector": k, "cocycle": vec})
        elif apply_hmat(env, incoming, sol) != vec:  # pragma: no cover
            # solve already verified membership
            failures.append({"kernel_vector": k,
                             "reason": "verification mismatch"})
    return {
        "term": term,
        "kind": members[term].kind,
        "degree": members[term].degree,
        "kernel_dim_in_window": len(kernel),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# the action of the contact pseudoalgebra generator, computed directly
# from its image inside derivation pseudoalgebra


def w_star_direct(env, f_dict, a_vec, pf):
    """The pseudoaction of f (x) a on a pseudoform, evaluated slotwise and
    scattered from the terms of pf.  Returns a dict (F, G, T) -> c
    representing sums of (e^(F) (x) e^(G)) (x)_H (1 (x) x^T)."""
    data = env.data
    dim = data.dim
    a_elt = env_mod.from_vector(a_vec)
    # alpha([a, .] ^ rest) is the gl action of ad a on alpha, and
    # alpha(a ^ rest) its contraction with a
    ad_a = exterior.gl_image(linalg.mat_comb(
        dim, [(v, data.ad_matrix(k)) for k, v in enumerate(a_vec)]))
    contraction = exterior.contraction_image(a_vec)
    f_times = [env.mul(f_dict, env_mod.generator(dim, j)) for j in range(dim)]
    out = {}
    for (I, S), c in pf.items():
        # -(f (x) g a) alpha
        for K, ck in env.mul({I: ONE}, a_elt).items():
            for F, cf in f_dict.items():
                vec_put(out, (F, K, S), -c * cf * ck)
        # (f (x) g) alpha([a, .] ^ rest)
        for T, cb in derive(S, ad_a):
            for F, cf in f_dict.items():
                vec_put(out, (F, I, T), cb * c * cf)
        # (f e_j (x) g) alpha(a ^ rest) in each slot holding x^j: the
        # derivation x^m |-> -a^m x^j, summed over j
        for rest, ca in derive(S, contraction):
            for j in range(dim):
                hit = merge((j,), rest)
                if hit is None:
                    continue
                sign, T = hit
                for F, cf in f_times[j].items():
                    vec_put(out, (F, I, T), -sign * ca * c * cf)
    return out


def e_star_direct(env, pf):
    """Action of the contact generator e = 1 (x) e_0 - sum_i e_i (x) d^i
    on a pseudoform, via the embedding into the derivation pseudoalgebra."""
    data = env.data
    out = w_star_direct(env, env_mod.unit(data.dim), data.basis_vector(0), pf)
    for i in range(1, data.dim):
        gi = env_mod.generator(data.dim, i)
        vec_iadd(out, w_star_direct(env, gi, data.dual_vector(i), pf), -ONE)
    return out
