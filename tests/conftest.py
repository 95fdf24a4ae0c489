from fractions import Fraction

import pytest

from contactk import contact_lie, pseudoforms, sp_rep


@pytest.fixture(scope="session")
def sl2():
    return contact_lie.sl2()


@pytest.fixture(scope="session")
def heis1():
    return contact_lie.heisenberg(1)


@pytest.fixture(scope="session")
def heis2():
    return contact_lie.heisenberg(2)


@pytest.fixture(scope="session")
def nonuni():
    # a solvable contact algebra with a nonzero trace character:
    # [a, b] = z + a, theta(z) = 1; normalizes to s = -z
    return contact_lie.build_contact_data(
        3, {(0, 1, 2): 1, (0, 1, 0): 1}, (0, 0, 1)
    )


@pytest.fixture(scope="session")
def algebras(sl2, heis1, heis2):
    return {"sl2": sl2, "heis1": heis1, "heis2": heis2}


@pytest.fixture(scope="session")
def small_algebras(sl2, heis1):
    return {"sl2": sl2, "heis1": heis1}


def make_spec(data, u_kind, c, twist=None):
    from contactk import pseudoalgebra as palg

    gens = sp_rep.build_sp(data)
    if u_kind == "trivial":
        rep = sp_rep.trivial_rep(data, gens)
    elif u_kind == "sym2":
        rep = sp_rep.sym_square_rep(data, gens)
    else:
        rep = sp_rep.fundamental_rep(data, gens, int(u_kind))
    tw = twist if twist is not None else pseudoforms.trivial_twist(data)
    return palg.TensorModuleSpec(data, tw, rep, Fraction(c))


@pytest.fixture(scope="session")
def pi2_heis1(heis1):
    mats = [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    return pseudoforms.TwistData(heis1, mats)
