import os
from fractions import Fraction

import pytest

from contactk import contact_lie, pseudoforms, sp_rep
from contactk.enveloping import get_env


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
def heis2_rebased():
    # heisenberg:2 in a random integer basis with a random contact form:
    # r and omega are dense (denominators 275 and 43), so a transposed
    # index shows up where the sparse builtins hide it
    path = os.path.join(os.path.dirname(__file__), "data",
                        "heis2_rebased.json")
    return contact_lie.load_algebra_file(path)


@pytest.fixture(scope="session")
def algebras(sl2, heis1, heis2):
    return {"sl2": sl2, "heis1": heis1, "heis2": heis2}


@pytest.fixture(scope="session")
def reference_algebras(algebras, nonuni, heis2_rebased):
    """Every datum the scattered form operators are compared on against
    their gather references."""
    return dict(algebras, heis3=contact_lie.heisenberg(3), nonuni=nonuni,
                heis2_rebased=heis2_rebased)


@pytest.fixture(scope="session")
def small_algebras(sl2, heis1):
    return {"sl2": sl2, "heis1": heis1}


def insert_index(idx, key):
    """Sort idx into the increasing tuple key; None if idx already occurs.
    Returns (sign, new_key) with sign the parity of moving idx from the
    front past the smaller entries: the sign rule of the gather references
    for the form operators."""
    if idx in key:
        return None
    pos = sum(1 for x in key if x < idx)
    return (-1 if pos % 2 else 1), key[:pos] + (idx,) + key[pos:]


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


def twisted_contact_complex(data, twist=None):
    """Members and maps of the contact complex twisted by a module:
    returns (specs, hmats) where hmats[i] maps specs[i] to specs[i+1]."""
    from contactk import pseudoalgebra as palg

    env = get_env(data)
    members = pseudoforms.contact_complex_members(data)
    hmats = pseudoforms.contact_complex_hmats(env, members)
    tv = twist if twist is not None else pseudoforms.trivial_twist(data)
    specs = [palg.member_tensor_spec(data, m, tv) for m in members]
    if twist is not None:
        hmats = [
            pseudoforms.twist_hmat(env, twist, h, members[i].dim,
                                   members[i + 1].dim)
            for i, h in enumerate(hmats)
        ]
    return specs, hmats


@pytest.fixture(scope="session")
def pi2_heis1(heis1):
    mats = [[[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    return pseudoforms.TwistData(heis1, mats)
