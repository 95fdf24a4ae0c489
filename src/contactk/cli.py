"""Batch verification front-end.

Subcommands load a Lie algebra datum (built-in name or input file), run a
named family of exact checks, and emit a deterministic report in table or
JSON form.  The exit status is 0 when every check passes, 1 when any
fails, and 2 for configuration errors, so the suites double as CI gates.

Each suite records its checks on a `report.Suite`: `suite.record` for one
verdict, `with suite.probe(name, statement) as pr:` for a family of cases.
Every failed check carries a minimal witness: the offending input and,
where the check compares two expressions, both sides of the violated
identity.
"""

import argparse
import itertools
import random
import sys
from fractions import Fraction

from . import (
    annihilation,
    contact_lie,
    enveloping as env_mod,
    exterior,
    linalg,
    pseudoalgebra as palg,
    pseudoforms as pfm,
    report as report_mod,
    sp_rep,
)

ZERO = Fraction(0)
ONE = Fraction(1)


class BadConfig(ValueError):
    """Unusable command-line configuration."""


# ---------------------------------------------------------------------------
# small helpers


def _rand_element(rng, dim, max_plain, max_terms=3):
    idx = env_mod.multi_indices(dim, max_plain)
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        out[rng.choice(idx)] = Fraction(rng.randint(-3, 3))
    return {k: v for k, v in out.items() if v}


def builtin_twist(data, name):
    if name == "trivial":
        return pfm.trivial_twist(data)
    if name == "tr-ad":
        return pfm.trace_character_twist(data)
    if name == "nilpotent2":
        # strictly upper triangular 2-dim module from a covector that
        # kills the derived algebra: lam(k) sums against every [e_i, e_j]
        sys_ = linalg.LinearSystem()
        for k in range(data.dim):
            sys_.add_column(k, {(i, j): data.c[i][j][k]
                                for i in range(data.dim)
                                for j in range(data.dim) if data.c[i][j][k]})
        kern = sys_.kernel()
        if not kern:
            raise BadConfig(
                "algebra is perfect: no nontrivial nilpotent2 module"
            )
        lam = tuple(kern[0].get(k, ZERO) for k in range(data.dim))
        mats = [((ZERO, lam[k]), (ZERO, ZERO)) for k in range(data.dim)]
        return pfm.TwistData(data, mats)
    raise BadConfig(f"unknown module name {name!r}")


def builtin_u(data, gens, name):
    if name == "trivial":
        return sp_rep.trivial_rep(data, gens), ("trivial", 0)
    if name == "sym2":
        return sp_rep.sym_square_rep(data, gens), ("sym2", 0)
    if name.startswith("pi:"):
        digits = name[3:]
        if not (digits.isdecimal() and int(digits) <= data.N):
            raise BadConfig(f"symplectic factor {name!r}: want pi:n with "
                            f"0 <= n <= {data.N}")
        n = int(digits)
        return sp_rep.fundamental_rep(data, gens, n), ("fundamental", n)
    raise BadConfig(f"unknown symplectic factor {name!r}")


# ---------------------------------------------------------------------------
# suites


def suite_contact(suite, data):
    dim = data.dim
    th = exterior.theta_form(data)
    om = exterior.omega_form(data)

    suite.record(
        "contact.volume",
        "theta ^ omega^N is nonzero",
        not exterior.wedge(th, exterior.wedge_power(om, data.N)).is_zero(),
        {"theta": th.as_dict(), "omega": om.as_dict()},
    )
    suite.record(
        "contact.omega_is_d_theta",
        "omega equals the differential of theta",
        exterior.d0(data, th).as_dict() == om.as_dict(),
        {"d_theta": exterior.d0(data, th).as_dict(),
         "omega": om.as_dict()},
    )
    with suite.probe("contact.omega_bracket",
                     "omega(a^b) = -theta([a,b]) on all basis pairs") as pr:
        for i in range(dim):
            for j in range(dim):
                pr.eq(
                    data.omega_pair(data.basis_vector(i),
                                    data.basis_vector(j)),
                    -data.theta_of(
                        data.bracket_vec(data.basis_vector(i),
                                         data.basis_vector(j))
                    ),
                    pair=(i, j),
                )
    with suite.probe("contact.radical",
                     "the distinguished direction spans the radical of omega "
                     "and brackets into the barred part") as pr:
        pr.check(exterior.contract(data.basis_vector(0), om).is_zero(),
                 part="contraction of omega with s")
        for i in range(dim):
            pr.eq(
                data.theta_of(
                    data.bracket_vec(data.basis_vector(0),
                                     data.basis_vector(i))
                ),
                ZERO,
                bracket_with=i,
            )
    with suite.probe("contact.r_inverse",
                     "r inverts the restricted omega") as pr:
        for i in range(1, dim):
            for k in range(1, dim):
                want = ONE if i == k else ZERO
                pr.eq(
                    sum(data.rmat[i][j] * data.omega[j][k]
                        for j in range(1, dim)),
                    want, pair=(i, k),
                )
    with suite.probe("contact.dual_pairing",
                     "omega(d^i ^ e_k) = delta^i_k") as pr:
        for i in range(1, dim):
            for k in range(1, dim):
                pr.eq(
                    data.omega_pair(data.dual_vector(i), data.basis_vector(k)),
                    ONE if i == k else ZERO, pair=(i, k),
                )
    with suite.probe("contact.dual_omega",
                     "omega(d^i ^ d^j) = -r^{ij} = r^{ji}") as pr:
        for i in range(1, dim):
            for j in range(1, dim):
                pr.eq(
                    data.omega_pair(data.dual_vector(i), data.dual_vector(j)),
                    -data.rmat[i][j], pair=(i, j),
                )
                pr.eq(data.rmat[i][j], -data.rmat[j][i], pair=(i, j))
    suite.record(
        "contact.trace_identity",
        "the dual-trace identity for the structure constants holds",
        contact_lie.check_remark_identity(data),
        {"trace_ad": data.trace_ad},
    )
    env = env_mod.get_env(data)
    acc = {}
    for i in range(1, dim):
        linalg.vec_iadd(
            acc,
            env.mul(env_mod.generator(dim, i),
                    env_mod.from_vector(data.dual_vector(i))),
            Fraction(2),
        )
    got = acc.get(tuple(env_mod.eps(dim, 0)), ZERO)
    suite.record(
        "contact.euler_coefficient",
        "the distinguished coefficient of 2 sum e_i d^i equals -2N",
        got == -2 * data.N,
        {"got": got, "want": -2 * data.N},
    )
    sympl = contact_lie.symplectic_basis(data)
    with suite.probe("contact.symplectic_gs",
                     "symplectic reduction produces a standard basis") as pr:
        for i in range(1, dim):
            for j in range(1, dim):
                want = ZERO
                if j == i + data.N:
                    want = ONE
                elif i == j + data.N:
                    want = -ONE
                pr.eq(data.omega_pair(sympl[i - 1], sympl[j - 1]), want,
                      pair=(i, j))
    ds = contact_lie.with_symplectic_basis(data)
    with suite.probe("contact.symplectic_duals",
                     "in a standard frame d^i = -e_{i+N} and d^{i+N} = "
                     "e_i") as pr:
        pr.check(contact_lie.is_symplectic(ds), part="pairings")
        for i in range(1, ds.N + 1):
            pr.eq(ds.dual_vector(i),
                  tuple(-x for x in ds.basis_vector(i + ds.N)), dual=i)
            pr.eq(ds.dual_vector(i + ds.N), ds.basis_vector(i), dual=i + ds.N)
    suite.record(
        "contact.symplectic_idempotent",
        "symplectic reduction fixes an already standard basis",
        contact_lie.symplectic_basis(ds)
        == tuple(ds.basis_vector(i) for i in range(1, dim)),
        {"basis": contact_lie.symplectic_basis(ds)},
    )


def suite_exterior(suite, data):
    dim = data.dim
    th = exterior.theta_form(data)
    om = exterior.omega_form(data)
    with suite.probe("exterior.d0_squared",
                     "the constant differential squares to zero on every "
                     "monomial") as pr:
        for n in range(dim + 1):
            for key in exterior.monomials(dim, n):
                f = exterior.form(n, {key: ONE})
                dd = exterior.d0(data, exterior.d0(data, f))
                pr.check(dd.is_zero(), monomial=key, d_squared=dd.as_dict())
    with suite.probe("exterior.cartan",
                     "the homotopy formula for the adjoint action holds "
                     "everywhere") as pr:
        for k in range(dim):
            A = data.ad_matrix(k)
            vk = data.basis_vector(k)
            for n in range(dim + 1):
                for key in exterior.monomials(dim, n):
                    f = exterior.form(n, {key: ONE})
                    lhs = exterior.gl_act(A, f)
                    rhs = exterior.d0(data, exterior.contract(vk, f)) + \
                        exterior.contract(vk, exterior.d0(data, f))
                    pr.eq(lhs.as_dict(), rhs.as_dict(),
                          direction=k, monomial=key)
    gens = sp_rep.sp_gens_for(data)
    with suite.probe("exterior.gl_identities",
                     "the grading element scales theta and omega by -2; "
                     "raised elementary matrices send omega to monomials; the "
                     "symplectic algebra kills both") as pr:
        pr.eq(exterior.gl_act(gens.i_prime, th).as_dict(),
              (Fraction(-2) * th).as_dict(), acting="grading on theta")
        pr.eq(exterior.gl_act(gens.i_prime, om).as_dict(),
              (Fraction(-2) * om).as_dict(), acting="grading on omega")
        for i in range(1, dim):
            for j in range(dim):
                # e^{ij} in gl(d), including the column-0 case
                got = exterior.gl_act(sp_rep.e_raised_full(data, i, j), om)
                want = exterior.wedge(exterior.one_form(i),
                                      exterior.one_form(j))
                pr.eq(got.as_dict(), want.as_dict(), raised=(i, j))
        for (i, j), f in gens.f_raised.items():
            full = sp_rep.embed_bar(data, f)
            pr.check(exterior.gl_act(full, th).is_zero(),
                     generator=(i, j), on="theta")
            pr.check(exterior.gl_act(full, om).is_zero(),
                     generator=(i, j), on="omega")
        for j in range(dim):
            pr.check(exterior.gl_act(linalg.elementary(dim, 0, j),
                                     om).is_zero(), row_zero_matrix=j)
    with suite.probe("exterior.reduction_ranges",
                     "the ideal fills the top half and the kernel the bottom "
                     "half") as pr:
        for n in range(dim + 2):
            if data.N + 1 <= n <= dim:
                pr.eq(exterior.compute_I(data, n).rank,
                      len(exterior.monomials(dim, n)), degree=n, space="ideal")
            if n <= data.N:
                pr.eq(len(exterior.compute_K(data, n)), 0, degree=n,
                      space="kernel")
    with suite.probe("exterior.psi_powers",
                     "wedge powers of omega are isomorphisms between barred "
                     "levels") as pr:
        for m in range(data.N + 1):
            pr.check(exterior.psi_bar_power_is_iso(data, m), power=m)
    with suite.probe("exterior.kernel_quotient_iso",
                     "primitive kernels match barred quotients through omega "
                     "powers") as pr:
        for m in range(data.N + 1):
            pr.check(exterior.lemma_composition_is_iso(data, m), power=m)
    with suite.probe("exterior.column_ideal",
                     "the abelian column algebra maps forms into the ideal "
                     "and kills the primitive kernels") as pr:
        for k in range(1, dim):
            E = linalg.elementary(dim, k, 0)
            for n in range(dim + 1):
                ech = exterior.compute_I(data, n)
                for key in exterior.monomials(dim, n):
                    img = exterior.gl_act(E, exterior.form(n, {key: ONE}))
                    pr.check(ech.contains(img.as_dict()), column=k,
                             monomial=key)
                for t, f in enumerate(exterior.compute_K(data, n)):
                    pr.check(exterior.gl_act(E, f).is_zero(),
                             column=k, kernel_vector=(n, t))
    members = pfm.contact_complex_members(data)
    try:
        cx = pfm.constant_complex(
            members, pfm.contact_complex_hmats(env_mod.get_env(data), members))
    except pfm.SolveFailure as exc:
        cx, ok, witness = None, False, {"error": str(exc)}
    else:
        ok, witness = cx.compositions_vanish(), {"dims": cx.dims}
    suite.record(
        "exterior.rumin_complex",
        "consecutive maps of the constant contact complex compose to zero",
        ok,
        witness,
    )
    if cx is None:
        return
    got = cx.cohomology_dims()
    want = exterior.ce_cohomology_dims(data)
    suite.record(
        "exterior.rumin_cohomology",
        "the constant contact complex reproduces the Lie algebra "
        "cohomology computed by brute force",
        got == want,
        {"reduced": got, "brute_force": want},
    )


def suite_enveloping(suite, data, rng):
    dim = data.dim
    env = env_mod.get_env(data)
    with suite.probe("enveloping.defining_relations",
                     "generator commutators match the structure "
                     "constants") as pr:
        for i in range(dim):
            for j in range(dim):
                pr.eq(
                    env.bracket(env_mod.generator(dim, i),
                                env_mod.generator(dim, j)),
                    env_mod.from_vector(
                        data.bracket_vec(data.basis_vector(i),
                                         data.basis_vector(j))
                    ),
                    pair=(i, j),
                )
    idx2 = env_mod.multi_indices(dim, 2)
    with suite.probe("enveloping.associativity",
                     "multiplication is associative on all basis triples of "
                     "plain degree at most two per factor") as pr:
        for I in idx2:
            for J in idx2:
                left = env.mono_mul(I, J)
                for K in idx2:
                    pr.eq(env.mul(left, {K: ONE}),
                          env.mul({I: ONE}, env.mono_mul(J, K)),
                          triple=(I, J, K))
    with suite.probe("enveloping.filtrations",
                     "products respect both the plain and the contact "
                     "filtration") as pr:
        for I in idx2:
            for J in idx2:
                bound_c = env_mod.contact_degree(I) + env_mod.contact_degree(J)
                bound_p = sum(I) + sum(J)
                for K in env.mono_mul(I, J):
                    pr.check(env_mod.contact_degree(K) <= bound_c
                             and sum(K) <= bound_p, factors=(I, J), term=K)
    suite.record(
        "enveloping.contact_contains_plain",
        "contact level two contains the whole degree-one part",
        all(env_mod.contact_degree(I) <= 2
            for I in env_mod.multi_indices(dim, 1)),
    )
    with suite.probe("enveloping.antipode_axiom",
                     "both antipode compositions return the counit on plain "
                     "degree at most three") as pr:
        for I in env_mod.multi_indices(dim, 3):
            want = env_mod.unit(dim) if sum(I) == 0 else {}
            acc, acc2 = {}, {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(acc, env.mul(env.antipode_basis(J), {K: ONE}), c)
                linalg.vec_iadd(acc2, env.mul({J: ONE}, env.antipode_basis(K)), c)
            pr.eq(acc, want, element=I, side="left")
            pr.eq(acc2, want, element=I, side="right")
    with suite.probe("enveloping.antipode_sampled",
                     "the antipode axiom holds on sampled plain degree up to "
                     "five") as pr:
        for _ in range(10):
            I = rng.choice(env_mod.multi_indices(dim, 5))
            acc = {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(acc, env.mul(env.antipode_basis(J), {K: ONE}), c)
            pr.eq(acc, env_mod.unit(dim) if sum(I) == 0 else {}, element=I)
    with suite.probe("enveloping.counit_axiom",
                     "collapsing either coproduct leg with the counit is the "
                     "identity") as pr:
        for I in env_mod.multi_indices(dim, 3):
            left, right = {}, {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                linalg.vec_iadd(left, {K: ONE}, c * env.counit({J: ONE}))
                linalg.vec_iadd(right, {J: ONE}, c * env.counit({K: ONE}))
            pr.eq(left, {I: ONE}, element=I, side="left")
            pr.eq(right, {I: ONE}, element=I, side="right")
    with suite.probe("enveloping.counit_triple",
                     "collapsing the first two legs of the double coproduct "
                     "with the antipode leaves 1 tensor the element") as pr:
        for I in env_mod.multi_indices(dim, 3):
            acc = {}
            for (J, K), c in env.coproduct({I: ONE}).items():
                for (J1, J2), c2 in env.coproduct({J: ONE}).items():
                    for A, ca in env.mul(
                            env.antipode_basis(J1), {J2: ONE}).items():
                        linalg.vec_put(acc, (A, K), c * c2 * ca)
            pr.eq(acc, {(env_mod.unit_index(dim), I): ONE}, element=I)
    with suite.probe("enveloping.coproduct_algebra_map",
                     "the coproduct is multiplicative on sampled pairs") as pr:
        for _ in range(10):
            u = _rand_element(rng, dim, 2)
            v = _rand_element(rng, dim, 2)
            pr.eq(env.coproduct(env.mul(u, v)),
                  env.tensor_mul(env.coproduct(u), env.coproduct(v)),
                  factors=(u, v))
    t = 4
    with suite.probe("enveloping.dual_actions",
                     "both actions on dual covectors have the stated linear "
                     "parts") as pr:
        for i in range(dim):
            vec = data.basis_vector(i)
            for j in range(dim):
                x = env_mod.dual_covector(dim, j, t)
                # (side, action, the k of its linear part, their sign)
                for side, res, ks, sign in (
                        ("left", env_mod.d_left(env, vec, x), range(i), -ONE),
                        ("right", env_mod.d_right(env, x, vec),
                         range(i + 1, dim), ONE)):
                    want = {}
                    if i == j:
                        want[env_mod.unit_index(dim)] = -ONE
                    for k in ks:
                        c = data.c[i][k][j]
                        if c:
                            key = tuple(env_mod.eps(dim, k))
                            want[key] = want.get(key, ZERO) + sign * c
                    got = {I: c for I, c in res.coeffs.items() if sum(I) <= 1}
                    pr.eq(got, {k: v for k, v in want.items() if v},
                          action=side, pair=(i, j))
    with suite.probe("enveloping.coadjoint_difference",
                     "the two dual actions differ exactly by the coadjoint "
                     "action") as pr:
        for i in range(dim):
            for j in range(dim):
                x = env_mod.dual_covector(dim, j, 5)
                left = env_mod.d_left(env, data.basis_vector(i), x)
                right = env_mod.d_right(env, x, data.basis_vector(i))
                diff = left.add(right.scale(-ONE))
                g = env_mod.generator(dim, i)
                for J in env_mod.contact_indices(dim, diff.truncation):
                    br = env.bracket(g, {J: ONE})
                    pr.eq(diff.coeffs.get(J, ZERO), -env.dual_pair(x, br),
                          pair=(i, j), at=J)
    gens = [env_mod.generator(dim, i) for i in range(dim)]
    with suite.probe("enveloping.symmetrization",
                     "ordered products expand into symmetrized commutator "
                     "corrections") as pr:
        if dim == 3:
            triples = list(itertools.product(range(dim), repeat=3))
            quads = list(itertools.product(range(dim), repeat=4))
        else:
            triples = [tuple(rng.randrange(dim) for _ in range(3))
                       for _ in range(24)]
            quads = [tuple(rng.randrange(dim) for _ in range(4))
                     for _ in range(24)]
        for t3 in triples:
            pr.check(
                env_mod.symmetrization_identity_check(
                    env, gens[t3[0]], gens[t3[1]], gens[t3[2]]),
                triple=t3,
            )
        for t4 in quads:
            pr.check(
                env_mod.symmetrization_identity_check(
                    env, gens[t4[0]], gens[t4[1]], gens[t4[2]], gens[t4[3]]),
                quadruple=t4,
            )


def suite_sp(suite, data):
    dim = data.dim
    gens = sp_rep.sp_gens_for(data)
    with suite.probe("sp.basis",
                     "the symmetric raised generators are independent of the "
                     "right count and preserve the form") as pr:
        pr.eq(sp_rep.f_system(data, gens).image_rank(),
              sp_rep.sp_dimension(data), part="count")
        for (i, j), f in gens.f_raised.items():
            pr.check(sp_rep.is_symplectic_matrix(data, f), generator=(i, j))
    with suite.probe("sp.bracket_tables",
                     "raised and symmetric generators have the stated bracket "
                     "tables") as pr:
        for (i, j) in itertools.product(range(1, dim), repeat=2):
            for (k, l) in itertools.product(range(1, dim), repeat=2):
                lhs = linalg.commutator(gens.e_raised[(i, j)],
                                        gens.e_raised[(k, l)])
                rhs = linalg.mat_sub(
                    linalg.mat_scale(gens.e_raised[(i, l)], data.rmat[k][j]),
                    linalg.mat_scale(gens.e_raised[(k, j)], data.rmat[i][l]),
                )
                pr.eq(lhs, rhs, raised=(i, j, k, l))
                lhs = linalg.commutator(gens.f(i, j), gens.f(k, l))
                rhs = linalg.mat_comb(dim - 1, [
                    (Fraction(data.rmat[i][k], 2), gens.f(j, l)),
                    (Fraction(data.rmat[i][l], 2), gens.f(j, k)),
                    (Fraction(data.rmat[j][k], 2), gens.f(i, l)),
                    (Fraction(data.rmat[j][l], 2), gens.f(i, k)),
                ])
                pr.eq(lhs, rhs, symmetric=(i, j, k, l))
    with suite.probe("sp.trace_raised",
                     "the trace of a raised elementary matrix is the r "
                     "coefficient") as pr:
        for (i, j), e in gens.e_raised.items():
            pr.eq(linalg.trace(e), data.rmat[i][j], generator=(i, j))
    with suite.probe("sp.sl2_triples",
                     "each index yields a standard triple") as pr:
        for i in range(1, dim):
            h_, e_, f_ = gens.sl2_triple(i)
            pr.eq(linalg.commutator(h_, e_), linalg.mat_scale(e_, 2), index=i,
                  relation="[h,e]=2e")
            pr.eq(linalg.commutator(h_, f_), linalg.mat_scale(f_, -2), index=i,
                  relation="[h,f]=-2f")
            pr.eq(linalg.commutator(e_, f_), h_, index=i, relation="[e,f]=h")
            pr.eq(linalg.commutator(gens.f_lower_one(i, i), gens.f(i, i)),
                  gens.f(i, i), index=i, relation="mixed-lowered")
    with suite.probe("sp.trace_form",
                     "the trace form of lowered against raised generators is "
                     "minus one half the symmetrized Kronecker pairing") as pr:
        for i in range(1, dim):
            for j in range(1, dim):
                fij = gens.f_lower_two(i, j)
                for k in range(1, dim):
                    for l in range(1, dim):
                        want = Fraction(-1, 2) * (
                            (1 if (i == l and j == k) else 0)
                            + (1 if (i == k and j == l) else 0)
                        )
                        pr.eq(linalg.trace(linalg.mat_mul(fij, gens.f(k, l))),
                              want, indices=(i, j, k, l))
    ds = contact_lie.with_symplectic_basis(data)
    gs = sp_rep.sp_gens_for(ds)
    with suite.probe("sp.cartan_diagonal",
                     "in a standard frame the triple elements are diagonal "
                     "differences") as pr:
        for i in range(1, ds.N + 1):
            pr.eq(
                gs.sl2_triple(i)[0],
                linalg.mat_sub(
                    sp_rep.elementary_bar(ds.dim, i, i),
                    sp_rep.elementary_bar(ds.dim, ds.N + i, ds.N + i),
                ),
                index=i,
            )
    with suite.probe("sp.fundamental_dims",
                     "fundamental representations have binomial-difference "
                     "dimensions") as dims_pr:
        with suite.probe("sp.casimir",
                         "the Casimir is the scalar n(2N+2-n)/2 on each "
                         "fundamental representation and commutes with the "
                         "generators") as pr:
            for n in range(data.N + 1):
                rep = sp_rep.fundamental_rep(data, gens, n)
                dims_pr.eq(rep.dim, sp_rep.fundamental_dim(data.N, n),
                           weight=n)
                cas = sp_rep.casimir_apply(data, gens, rep)
                pr.eq(sp_rep.scalar_matrix_value(cas),
                      Fraction(n * (2 * data.N + 2 - n), 2), weight=n)
                for (key, fm) in rep.fmats:
                    pr.check(
                        linalg.commutator(cas, fm) == linalg.zeros(rep.dim),
                        weight=n, commutes_with=key,
                    )
    with suite.probe("sp.projected_adjoint",
                     "the projected adjoint lands in the symplectic algebra "
                     "and restricts the distinguished direction "
                     "faithfully") as pr:
        for k in range(dim):
            m = sp_rep.ad_sp(data, k)
            pr.check(sp_rep.is_symplectic_matrix(data, m), direction=k)
            pr.eq(linalg.trace(m), ZERO, direction=k)
        pr.eq(sp_rep.ad_sp(data, 0),
              tuple(tuple(r[1:]) for r in data.ad_matrix(0)[1:]),
              direction="distinguished")
    with suite.probe("sp.symmetrized_relation",
                     "the symmetrized quadratic relation holds on "
                     "fundamentals and fails on the doubled-weight "
                     "module") as pr:
        for p in range(1, data.N + 1):
            pr.check(
                sp_rep.find_cryptic_witness(
                    sp_rep.fundamental_rep(data, gens, p)) is None,
                weight=p,
            )
        pr.check(
            sp_rep.find_cryptic_witness(sp_rep.trivial_rep(data, gens))
            is None,
            weight=0,
        )
        pr.check(
            sp_rep.find_cryptic_witness(sp_rep.sym_square_rep(data, gens))
            is not None,
            module="sym2", expected="a violating quadruple",
        )
    suite.record(
        "sp.graded_nilpotency",
        "the symmetrized relations force fourth-power nilpotency in the "
        "associated graded algebra",
        sp_rep.graded_nilpotency_certificate(),
    )
    with suite.probe("sp.grading_scalar",
                     "the grading element scales barred n-forms by -n") as pr:
        for n in range(2 * data.N + 1):
            for key in exterior.bar_monomials(dim, n):
                f = exterior.form(n, {key: ONE})
                got = exterior.gl_act(gens.i_prime, f)
                pr.eq(got.as_dict(), (Fraction(-n) * f).as_dict(),
                      degree=n, monomial=key)


def suite_rumin(suite, data, rng, degree_bound, trials, twist):
    dim = data.dim
    env = env_mod.get_env(data)
    one = pfm.pf_from_form(dim, exterior.scalar_form(ONE))
    d_one = pfm.pseudo_d(env, one)
    suite.record(
        "rumin.d_unit",
        "the differential of the unit is minus the tautological 1-form",
        d_one == (-ONE) * pfm.eps_pseudoform(dim),
        {"got": d_one.as_dict()},
    )
    spanning_bound = min(degree_bound - 1, 3)
    with suite.probe("rumin.d_squared",
                     "the pseudoform differential squares to zero on a "
                     "spanning set") as pr:
        for n in range(dim + 1):
            for I in env_mod.multi_indices(dim, spanning_bound):
                for S in exterior.monomials(dim, n):
                    a = pfm.pform(n, {(I, S): ONE})
                    dd = pfm.pseudo_d(env, pfm.pseudo_d(env, a))
                    pr.check(dd.is_zero(), element=(I, S),
                             d_squared=dd.as_dict())
    with suite.probe("rumin.h_linearity",
                     "the differential commutes with coefficient "
                     "multiplication") as pr:
        for _ in range(10):
            hh = _rand_element(rng, dim, 2, 1) or env_mod.unit(dim)
            n = rng.randint(0, dim - 1)
            a = pfm.pform(
                n,
                {(rng.choice(env_mod.multi_indices(dim, 2)),
                  rng.choice(exterior.monomials(dim, n))):
                 Fraction(rng.randint(-2, 2))},
            )
            pr.eq(
                pfm.pseudo_d(env, pfm.h_mul_pf(env, hh, a)).as_dict(),
                pfm.h_mul_pf(env, hh, pfm.pseudo_d(env, a)).as_dict(),
                coefficient=hh, element=a.as_dict(),
            )
    suite.record(
        "rumin.wedge_relations",
        "the differential intertwines the two wedge operators as stated",
        pfm.relations_check(env, min(spanning_bound, 2)),
    )
    epsf = pfm.eps_pseudoform(dim)
    with suite.probe("rumin.eps_relation",
                     "the differential minus its constant part wedges with "
                     "the tautological form (coefficients kept in written "
                     "order)") as pr:
        for n in range(dim + 1):
            for I in env_mod.multi_indices(dim, 2):
                for S in exterior.monomials(dim, n):
                    a = pfm.pform(n, {(I, S): ONE})
                    lhs = pfm.pseudo_d(env, a) - pfm.d0_h(env, a)
                    sign = -ONE if n % 2 == 0 else ONE
                    rhs = sign * pfm.wedge_pseudo(env, a, epsf)
                    pr.eq(lhs.as_dict(), rhs.as_dict(), element=(I, S))
    nn = data.N
    with suite.probe("rumin.completion_independent",
                     "the second-order map is independent of the pivoting "
                     "order and lands in the primitive part") as pr:
        for _ in range(max(1, trials // 2)):
            terms = {}
            for _k in range(2):
                terms[(rng.choice(env_mod.multi_indices(dim, 2)),
                       rng.choice(exterior.monomials(dim, nn)))] = \
                    Fraction(rng.randint(-3, 3))
            a = pfm.pform(nn, terms)
            try:
                r1 = pfm.rumin_map(env, a)
                r2 = pfm.rumin_map(env, a, reverse=True)
            except pfm.SolveFailure as exc:
                pr.check(False, element=a.as_dict(), error=str(exc))
                continue
            pr.eq(r1.as_dict(), r2.as_dict(), element=a.as_dict())
            pr.check(pfm.in_K_pseudo(env, r1), element=a.as_dict(),
                     image=r1.as_dict())
    with suite.probe("rumin.vanishes_on_ideal",
                     "the second-order map kills the ideal part") as pr:
        for _ in range(max(1, trials // 2)):
            mu = pfm.pform(
                nn - 1,
                {(rng.choice(env_mod.multi_indices(dim, 2)),
                  rng.choice(exterior.monomials(dim, nn - 1))):
                 Fraction(rng.randint(-3, 3))},
            )
            a = pfm.theta_mul_p(env, mu)
            if nn >= 2:
                rho = pfm.pform(
                    nn - 2,
                    {(rng.choice(env_mod.multi_indices(dim, 2)),
                      rng.choice(exterior.monomials(dim, nn - 2))):
                     Fraction(rng.randint(-3, 3))},
                )
                a = a + pfm.omega_mul_p(env, rho)
            try:
                got = pfm.rumin_map(env, a)
            except pfm.SolveFailure as exc:
                pr.check(False, element=a.as_dict(), error=str(exc))
                continue
            pr.check(got.is_zero(), element=a.as_dict(), image=got.as_dict())
    members = pfm.contact_complex_members(data)
    with suite.probe("rumin.complex_compositions",
                     "consecutive contact-complex maps compose to zero") as pr:
        try:
            hmats = pfm.contact_complex_hmats(env, members)
        except pfm.SolveFailure as exc:
            hmats = None
            pr.check(False, error=str(exc))
        else:
            for i in range(len(hmats) - 1):
                comp = pfm.compose_hmats(env, hmats[i], hmats[i + 1])
                pr.check(pfm.hmat_is_zero(comp), position=i,
                         composition=comp)
    if hmats is None:
        return
    suite.info(
        "rumin.member_dims",
        "carrier dimensions along the contact complex",
        [m.dim for m in members],
    )
    # the untwisted member specs serve member_actions and, when the twist
    # is trivial, the homomorphism checks too (the twisted maps `tw` are
    # then the plain ones, as rumin.twist_trivial checks)
    specs = [palg.member_tensor_spec(data, mem) for mem in members]
    with suite.probe("rumin.member_actions",
                     "tensor-module actions on the carriers match the action "
                     "computed directly from the embedding into the "
                     "derivation pseudoalgebra") as pr:
        for mi, (mem, spec) in enumerate(zip(members, specs)):
            for gi, f in enumerate(mem.basis):
                direct = pfm.e_star_direct(env, pfm.pf_from_form(dim, f))
                grouped = {}
                for (F, G, T), c in direct.items():
                    grouped.setdefault((F, G), {})[T] = c
                raw = {}
                try:
                    for (F, G), coeffs in grouped.items():
                        cform = exterior.form(mem.degree, coeffs)
                        for idx, cc in mem.form_coords(cform).items():
                            key = (F, G, ((0,) * dim, idx))
                            raw[key] = raw.get(key, ZERO) + cc
                except ValueError as exc:  # the image left the carrier
                    pr.check(False, member=mi, generator=gi, error=str(exc))
                    continue
                raw = {k: v for k, v in raw.items() if v}
                lhs = palg.to_left_normal(env, raw)
                rhs = palg.to_left_normal(
                    env, palg.e_star_raw(spec, {((0,) * dim, gi): ONE})
                )
                pr.eq(lhs, rhs, member=mi, generator=gi)
    for term in range(1, len(members) - 1):
        rep = pfm.sample_exactness(env, members, hmats, term, degree_bound)
        suite.record(
            f"rumin.exactness_term_{term}",
            "every cocycle of the coefficient-degree window at an interior "
            "term has an exact preimage",
            not rep["failures"],
            rep,
        )
    # map i of the constant complex is d0 in the target's carrier
    # coordinates; the middle map first completes f to f - theta ^ gamma,
    # where d0(f) = theta ^ beta + omega ^ gamma
    cx = pfm.constant_complex(members, hmats)
    with suite.probe("rumin.constant_is_d0",
                     "the constant contact complex is d0, completed by theta "
                     "^ gamma at the middle map") as pr:
        for i, cols in enumerate(cx.maps):
            for s_idx, f in enumerate(members[i].basis):
                if i == data.N:
                    _beta, gamma = exterior.solve_theta_omega(
                        data, data.N + 1, exterior.d0(data, f))
                    f = f - exterior.theta_mul(data, gamma)
                want = members[i + 1].form_coords(exterior.d0(data, f))
                pr.check(cols[s_idx] == want, position=i, column=s_idx,
                         got=cols[s_idx], want=want)
    # twisting checks
    with suite.probe("rumin.twist_functorial",
                     "twisting commutes with composition on sampled module "
                     "maps") as pr:
        for _ in range(5):
            A, B = {}, {}
            for target, n_tgt in ((A, 2), (B, 3)):
                for i in range(2):
                    for j in range(n_tgt):
                        if rng.random() < 0.7:
                            h = _rand_element(rng, dim, 2, 1)
                            if h:
                                target[(i, j)] = h
            lhs = pfm.twist_hmat(env, twist, pfm.compose_hmats(env, A, B),
                                 2, 3)
            rhs = pfm.compose_hmats(
                env,
                pfm.twist_hmat(env, twist, A, 2, 2),
                pfm.twist_hmat(env, twist, B, 2, 3),
            )
            pr.eq(lhs, rhs, first=A, second=B)
    triv = pfm.trivial_twist(data)
    with suite.probe("rumin.twist_trivial",
                     "twisting by the trivial module is the identity on "
                     "maps") as pr:
        for i in range(len(hmats)):
            pr.eq(
                pfm.twist_hmat(env, triv, hmats[i], members[i].dim,
                               members[i + 1].dim),
                hmats[i], position=i,
            )
    tw = [
        pfm.twist_hmat(env, twist, hmats[i], members[i].dim,
                       members[i + 1].dim)
        for i in range(len(hmats))
    ]
    with suite.probe("rumin.twisted_compositions",
                     "the twisted complex still composes to zero") as pr:
        for i in range(len(tw) - 1):
            comp = pfm.compose_hmats(env, tw[i], tw[i + 1])
            pr.check(pfm.hmat_is_zero(comp), position=i, composition=comp)
    nontrivial = twist.dim_carrier > 1 or any(
        not linalg.is_zero_matrix(m) for m in twist.mats
    )
    if nontrivial:
        specs = [palg.member_tensor_spec(data, mem, twist) for mem in members]
    with suite.probe("rumin.homomorphism",
                     "every complex map intertwines the action on degree-0 "
                     "generators, composes to zero with its neighbour, and "
                     "sends generators to singular vectors") as pr:
        for pos in range(len(tw)):
            pr.check(palg.complex_homomorphism_check(specs, tw, pos),
                     position=pos)


def suite_annihilation(suite, data, rng, truncation):
    env = env_mod.get_env(data)
    dim = data.dim
    ok, fails = annihilation.fourier_images_check(env, truncation)
    suite.record(
        "annihilation.fourier_images",
        "the first Fourier coefficients of the generator have their "
        "stated images modulo the stated windows",
        ok,
        {"failing": fails},
    )
    suite.record(
        "annihilation.grading_element",
        "the expansion of the grading element through Fourier "
        "coefficients holds modulo the first filtration step",
        annihilation.iprime_expansion_check(env, truncation),
    )
    suite.record(
        "annihilation.gl_quotient",
        "the degree-zero quotient bracket table is the general linear "
        "algebra and acts standardly one step below",
        *annihilation.w0_quotient_iso_check(env, truncation),
    )
    suite.record(
        "annihilation.csp_quotient",
        "the contact degree-zero quotient table is the extended "
        "symplectic algebra and the next step covers the column algebra",
        annihilation.csp_quotient_check(env, truncation + 1),
    )
    suite.record(
        "annihilation.contact_filtration",
        "brackets respect the contact filtration and its second step "
        "sits inside the first plain step",
        annihilation.k_contact_filter_check(env, truncation),
    )
    with suite.probe("annihilation.alternating",
                     "the bracket of an element with itself vanishes") as pr:
        for _ in range(10):
            I = rng.choice(env_mod.contact_indices(dim, truncation))
            j = rng.randrange(dim)
            u = annihilation.w_monomial(dim, I, j, truncation)
            pr.eq(annihilation.w_bracket(env, u, u).coeffs, {}, element=(I, j))
    samples = env_mod.multi_indices(dim, 3)
    with suite.probe("annihilation.plain_filtration",
                     "brackets add plain filtration levels on sampled "
                     "pairs") as pr:
        for _ in range(30):
            I, J = rng.choice(samples), rng.choice(samples)
            pi, pj = sum(I) - 1, sum(J) - 1
            if pi < 0 or pj < 0:
                continue
            u = annihilation.w_monomial(dim, I, rng.randrange(dim),
                                        truncation + 1)
            v = annihilation.w_monomial(dim, J, rng.randrange(dim),
                                        truncation + 1)
            br = annihilation.w_bracket(env, u, v)
            for (K, _m) in br.coeffs:
                pr.check(env_mod.plain_degree(K) >= pi + pj + 1,
                         pair=(I, J), term=K)
    with suite.probe("annihilation.dual_filtration",
                     "both dual actions lower the contact filtration by the "
                     "weight of the acting direction") as pr:
        for I in env_mod.contact_indices(dim, truncation):
            x = env_mod.dual_monomial(dim, I, truncation)
            p = env_mod.contact_degree(I) - 1
            for i in range(dim):
                need = p - (2 if i == 0 else 1)
                for tag, res in (
                    ("left", env_mod.d_left(env, data.basis_vector(i), x)),
                    ("right", env_mod.d_right(env, x, data.basis_vector(i))),
                ):
                    for K in res.coeffs:
                        pr.check(env_mod.contact_degree(K) >= need + 1,
                                 element=I, direction=i, action=tag, term=K)


def run_classify(suite, data, c_min, c_max, twist, audit_cutoff=None):
    """Classify V(Pi, U, c) for each builtin U over the window of c.

    One base spec per U serves every c through `TensorModuleSpec.at`, so
    the c-free parts of the module are built once per U.

    The Jacobi defect is found once per U as a polynomial in c
    (`jacobi_check`): the action depends on c only through the central
    term, so the defect is d0 + c d1 + c^2 d2, and each c of the window
    is recorded as passing iff every such polynomial vanishes there."""
    gens = sp_rep.sp_gens_for(data)
    names = ["trivial"] + [f"pi:{n}" for n in range(1, data.N + 1)] + ["sym2"]
    suite.record(
        "classify.tau",
        "the gl-valued part of the embedded generator matches its "
        "closed form and lies in the stated subalgebra",
        palg.tau_check(data),
        {"lhs": palg.tau_of_e(data), "rhs": palg.tau_rhs(data)},
    )
    suite.record(
        "classify.skewness",
        "the defining bracket coefficient is skew under the flip",
        palg.skewness_check(data),
        {"element": palg.bracket_element(data)},
    )
    table = []
    window = range(c_min, c_max + 1)
    for name in names:
        rep, (kind, p) = builtin_u(data, gens, name)
        base = palg.TensorModuleSpec(data, twist, rep, c_min)
        defect = palg.jacobi_check(base)
        for c in window:
            spec = base.at(c)
            basis, used = palg.singular_space(spec, audit_cutoff)
            verdict = palg.verdict_of(spec, basis, used)
            want_red, want_deg = palg.expected_verdict(kind, p, c, data.N)
            ok = verdict.reducible == want_red and (
                not want_red or verdict.degrees == want_deg
            )
            table.append(
                {
                    "u": name,
                    "c": c,
                    "verdict": verdict.label(),
                    "singular_dim": verdict.singular_dim,
                    "cutoff": verdict.cutoff,
                    "expected": "reducible" if want_red else "irreducible",
                }
            )
            suite.record(
                f"classify.{name}.c={c}",
                "the reducibility verdict matches the classification rule",
                ok,
                {"verdict": verdict.label(), "expected_reducible": want_red,
                 "expected_degrees": list(want_deg)},
            )
            suite.record(
                f"classify.{name}.c={c}.jacobi",
                "the Jacobi identity holds for the generator acting twice",
                not any(d0 + c * (d1 + c * d2) for d0, d1, d2 in defect),
                {"u": name, "c": c},
            )
            if verdict.reducible:
                # where the rule says irreducible it predicts no
                # dimension (None), and the record fails
                per_unit = palg.expected_nonconstant_dim(kind, p, c, data.N)
                want_dim = None if per_unit is None else spec.dim_pi * per_unit
                nonconstant = verdict.singular_dim - spec.dim_r
                suite.record(
                    f"classify.{name}.c={c}.dimension",
                    "the nonconstant singular space has the dimension of "
                    "the adjacent complex member's constants",
                    nonconstant == want_dim,
                    {"nonconstant": nonconstant, "predicted": want_dim},
                )
                # the coefficient checks read the default-cutoff basis
                if used != palg.default_cutoff(spec):
                    basis, _cut = palg.singular_space(spec)
                with suite.probe(f"classify.{name}.c={c}.coefficients",
                                 "right-normal coefficients of singular "
                                 "vectors match the quadratic symbol modulo "
                                 "lower degree") as pr:
                    for t, v in enumerate(basis):
                        pr.check(palg.coefficient_lemma_check(spec, v),
                                 vector=t, coefficients=v)
                deg2 = [v for v in basis if palg.element_degree(v) == 2]
                if kind == "fundamental":
                    for t, v in enumerate(deg2):
                        okd, details = palg.degree2_structure_check(spec, v, p)
                        suite.record(
                            f"classify.{name}.c={c}.degree2_{t}",
                            "the degree-two structure identities and the "
                            "quadratic constraint hold",
                            okd,
                            details,
                        )
    suite.info("classify.table", "classification scan", table)
    return table


def run_singular(suite, data, twist, u_name, c):
    gens = sp_rep.sp_gens_for(data)
    rep, (_kind, _p) = builtin_u(data, gens, u_name)
    spec = palg.TensorModuleSpec(data, twist, rep, c)
    basis, cutoff = palg.singular_space(spec)
    suite.record(
        "singular.constants",
        "all constant vectors are singular",
        len(basis) >= spec.dim_r,
        {"found": len(basis), "constants": spec.dim_r},
    )
    rows = []
    for v in basis:
        deg = palg.element_degree(v)
        iv = palg.rho_sing_iprime(spec, v)
        top = {k: x for k, x in v.items()
               if env_mod.contact_degree(k[0]) == deg}
        hom = all(
            iv.get(k, ZERO) == (c + deg) * x for k, x in top.items()
        )
        rows.append(
            {
                "degree": deg,
                "grading_eigenvalue": str(Fraction(c) + deg),
                "top_part_homogeneous": hom,
                "coefficients": {
                    f"{k[0]}:{k[1]}": str(x) for k, x in sorted(v.items())
                },
            }
        )
        suite.record(
            f"singular.vector_{len(rows)-1}.eigenvalue",
            "the grading eigenvalue on the top part is the central "
            "scalar plus the degree",
            hom,
            {"vector": rows[-1], "grading_action": iv},
        )
    suite.info(
        "singular.basis",
        f"singular vectors at cutoff {cutoff}",
        rows,
    )


# ---------------------------------------------------------------------------
# command-line plumbing


# Every command takes --algebra, --out and --format; COMMANDS names the
# other options each one reads.  The parser, the objects `run_command`
# builds and the report's `config` echo all follow this table.
OPTIONS = {
    "--seed": {"type": int, "default": 2024},
    "--suite": {"default": "contact,exterior,enveloping,sp",
                "help": "comma-separated subset of contact, exterior, "
                "enveloping, sp"},
    "--degree-bound": {"type": int, "default": 4},
    "--trials": {"type": int, "default": 50},
    "--pi": {"default": "trivial",
             "help": "twisting module: trivial, tr-ad, nilpotent2"},
    "--u": {"default": "trivial",
            "help": "symplectic factor: trivial, pi:N, sym2"},
    "--c": {"default": "0", "help": "central scalar (rational)"},
    "--c-min": {"type": int, "default": -3},
    "--c-max": {"type": int, "default": None},
    "--audit-cutoff": {"type": int, "default": None,
                       "help": "optional higher degree cutoff for auditing"},
    "--truncation": {"type": int, "default": 4},
}

COMMANDS = {
    "verify-core": ("contact, exterior, enveloping and symplectic suites",
                    ("--seed", "--suite")),
    "rumin": ("pseudoform differential, completion map, exactness and "
              "twisting suites",
              ("--seed", "--degree-bound", "--trials", "--pi")),
    "singular": ("print a singular-vector basis", ("--pi", "--u", "--c")),
    "classify": ("reducibility scan against the classification rule",
                 ("--pi", "--c-min", "--c-max", "--audit-cutoff")),
    "annihilation": ("annihilation algebra suites",
                     ("--seed", "--truncation")),
}


def make_parser():
    ap = argparse.ArgumentParser(
        prog="contactk",
        description="exact verification suites for contact Lie algebra "
        "machinery",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--algebra", default="heisenberg:1",
                       help="sl2, heisenberg:N, or a path to a JSON datum")
        for flag in flags:
            p.add_argument(flag, **OPTIONS[flag])
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("table", "json"),
                       default="table")
    return ap


def _dest(flag):
    return flag[2:].replace("-", "_")


def run_command(args):
    flags = COMMANDS[args.command][1]
    try:
        data = contact_lie.resolve_algebra(args.algebra)
    except (ValueError, OSError) as exc:
        raise BadConfig(f"--algebra {args.algebra}: {exc}") from None
    rng = random.Random(args.seed) if "--seed" in flags else None
    twist = builtin_twist(data, args.pi) if "--pi" in flags else None
    suite = report_mod.Suite()

    if args.command == "verify-core":
        wanted = [s for s in args.suite.split(",") if s.strip()]
        if not wanted:
            raise BadConfig("empty suite selection")
        known = {"contact", "exterior", "enveloping", "sp"}
        bad = set(wanted) - known
        if bad:
            raise BadConfig(f"unknown suites: {sorted(bad)}")
        args.suite = ",".join(wanted)
        if "contact" in wanted:
            suite_contact(suite, data)
        if "exterior" in wanted:
            suite_exterior(suite, data)
        if "enveloping" in wanted:
            suite_enveloping(suite, data, rng)
        if "sp" in wanted:
            suite_sp(suite, data)
    elif args.command == "rumin":
        if args.trials < 1:
            raise BadConfig("rumin needs --trials >= 1")
        if args.degree_bound < 2:
            raise BadConfig(
                "rumin needs --degree-bound >= 2: below that the "
                "exactness checks' window of cocycles, coefficient degree "
                "at most the bound minus 2, is empty"
            )
        suite_rumin(suite, data, rng, args.degree_bound, args.trials, twist)
    elif args.command == "singular":
        try:
            c = contact_lie.parse_rational(args.c)
        except ValueError as exc:
            raise BadConfig(f"--c: {exc}") from None
        run_singular(suite, data, twist, args.u, c)
    elif args.command == "classify":
        if args.c_max is None:
            args.c_max = 2 * data.N + 4
        if args.c_min > args.c_max:
            raise BadConfig(f"--c-min {args.c_min} is above --c-max "
                            f"{args.c_max}: the scan would be empty")
        if args.audit_cutoff is not None and args.audit_cutoff < 3:
            raise BadConfig(
                "--audit-cutoff must be >= 3, the default cutoff of the "
                "trivial factor: it raises the cutoff, never lowers it"
            )
        run_classify(suite, data, args.c_min, args.c_max, twist,
                     args.audit_cutoff)
    elif args.command == "annihilation":
        if args.truncation < 4:
            raise BadConfig(
                "annihilation needs --truncation >= 4: below that the "
                "bracket drops the degree-one terms the W_0/W_1 quotient "
                "table is read from"
            )
        suite_annihilation(suite, data, rng, args.truncation)

    # echo the options the command read, as resolved above; an option
    # left unset (None) is omitted
    config = {"algebra": args.algebra}
    for flag in flags:
        key = _dest(flag)
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    rep = report_mod.build_report(args.command, config, suite)
    text = (
        report_mod.render_json(rep)
        if args.format == "json"
        else report_mod.render_table(rep)
    )
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BadConfig(f"--out {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)
    return 1 if rep["summary"]["failed"] else 0


def main(argv=None):
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return run_command(args)
    except BadConfig as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
