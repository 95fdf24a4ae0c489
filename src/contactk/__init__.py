"""Exact computer algebra for contact Lie algebras: the symplectic
machinery of a contact form, divided-power enveloping arithmetic with its
Hopf structure, constant and pseudoform Rumin complexes, tensor modules
over the rank-one contact pseudoalgebra, singular vectors and the
reducibility classification, plus truncated annihilation algebras."""

__version__ = "0.1.0"

from .contact_lie import (  # noqa: F401
    ContactLieData,
    JacobiViolation,
    NotContact,
    build_contact_data,
    check_remark_identity,
    heisenberg,
    load_algebra,
    load_algebra_file,
    resolve_algebra,
    sl2,
    symplectic_basis,
    with_symplectic_basis,
)
from .enveloping import (  # noqa: F401
    DualElement,
    Enveloping,
    TruncationOverflow,
    contact_degree,
    get_env,
)
from .pseudoalgebra import (  # noqa: F401
    TensorModuleSpec,
    Verdict,
    classify,
    is_singular,
    singular_space,
)
from .pseudoforms import TwistData  # noqa: F401
from .sp_rep import SpRep, build_sp, casimir_apply, fundamental_rep  # noqa: F401
