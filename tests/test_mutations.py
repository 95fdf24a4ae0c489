"""Each formula home can fail: a one-line sabotage of it must make a
recorded check fail.

A sabotage is applied with `monkeypatch`; `verify-core`, `rumin` and
`classify` on heisenberg:1 then run through `cli.main`, which must return
1 (a recorded failure), not raise.  `pseudoforms` imports `derive` and
`merge` by name, so those are patched in both namespaces.
"""

import json
from fractions import Fraction

import pytest

from contactk import cli
from contactk import enveloping as ev
from contactk import exterior as ex
from contactk import linalg as la
from contactk import pseudoalgebra as pa
from contactk import pseudoforms as pfm
from contactk import sp_rep as sp

DERIVE = ex.derive
MERGE = ex.merge
D0_IMAGE = ex.d0_image
GL_IMAGE = ex.gl_image
MAT_MUL = la.mat_mul
LOWER_TWO = sp.lower_two
PUT_CENTRAL = pa._put_central
E_STAR_FREE = pa._e_star_free
PSI_MAP = pa.psi_map
ANTIPODE = ev.Enveloping.antipode_basis


def _derive_flipped(key, image):
    for full, c in DERIVE(key, image):
        yield full, -c


def _merge_flipped(ka, kb):
    hit = MERGE(ka, kb)
    return None if hit is None else (-hit[0], hit[1])


def _negated(image):
    return [tuple((k, -c) for k, c in terms) for terms in image]


def _e_star_free_unit_leg(spec, v):
    """The c-free action with the unit in the second leg, not e^(J)."""
    zero = ev.unit_index(spec.data.dim)
    out = {}
    for (F, _J, w), c in E_STAR_FREE(spec, v).items():
        la.vec_put(out, (F, zero, w), c)
    return out


def _mat_mul_dropping_one(a, b):
    """The product with its first nonzero entry set to zero."""
    rows = [list(row) for row in MAT_MUL(a, b)]
    hit = next(((row, j) for row in rows for j, x in enumerate(row) if x),
               None)
    if hit is not None:
        hit[0][hit[1]] = la.ZERO
    return tuple(map(tuple, rows))


SABOTAGES = {
    "derive_sign": [(ex, "derive", _derive_flipped),
                    (pfm, "derive", _derive_flipped)],
    "merge_sign": [(ex, "merge", _merge_flipped),
                   (pfm, "merge", _merge_flipped)],
    "d0_image_negated": [(ex, "d0_image",
                          lambda data: _negated(D0_IMAGE(data)))],
    "gl_image_negated": [(ex, "gl_image", lambda A: _negated(GL_IMAGE(A)))],
    "mat_mul_swapped": [(la, "mat_mul", lambda a, b: MAT_MUL(b, a))],
    "mat_mul_drops_an_entry": [(la, "mat_mul", _mat_mul_dropping_one)],
    "lower_two_negated": [(sp, "lower_two", lambda data, n, f, i, j:
                           la.mat_scale(LOWER_TWO(data, n, f, i, j), -1))],
    # c/2 -> c/3 in the central term of the generator action
    "central_term_third": [(pa, "_put_central", lambda out, dim, v, scl:
                            PUT_CENTRAL(out, dim, v, scl * Fraction(2, 3)))],
    "psi_map_doubled": [(pa, "psi_map", lambda spec, u:
                         la.vec_scale(PSI_MAP(spec, u), 2))],
    # e * (e^(J) (x) u) extended with 1 in the second leg, not e^(J)
    "e_star_free_unit_leg": [(pa, "_e_star_free", _e_star_free_unit_leg)],
    # S(e^(I)) = -(-1)^{|I|} reversed product / I!
    "antipode_sign_flipped": [(ev.Enveloping, "antipode_basis",
                               lambda env, I: la.vec_scale(ANTIPODE(env, I),
                                                           -1))],
}


def _failures(argv, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--format", "json", "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    return code, [c["name"] for c in checks if c["status"] == "fail"]


@pytest.mark.parametrize("name", sorted(SABOTAGES))
def test_sabotage_is_a_recorded_failure(name, monkeypatch, tmp_path):
    for module, attr, value in SABOTAGES[name]:
        monkeypatch.setattr(module, attr, value)
    seen = []
    for command in ("verify-core", "rumin", "classify"):
        code, failed = _failures([command, "--algebra", "heisenberg:1"],
                                 tmp_path)
        assert code == (1 if failed else 0), (command, failed)
        seen += failed
    assert seen, name
