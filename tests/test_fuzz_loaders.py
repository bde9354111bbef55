"""Arbitrary JSON through every CLI loader: each run ends in a clean exit code.

The drawn file is read as a group (verify, identify, and the group of a
left-regular ``rep make``), a representation (verify, decompose, commutant,
equivariant) and an operator (twirl, symtest).

Trees are drawn freely and also as valid specs with one field replaced, so
that the draws reach past the first type checks of each loader.  The
tolerance flags are drawn too, as any finite non-negative floats.
"""

import contextlib
import io
import json
import pathlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equirep import cli, serialize
from equirep.representations import dihedral_rep_s3, swap_rep

PRESETS = pathlib.Path(__file__).resolve().parent.parent / "presets"

KEYS = ["kind", "n", "mul", "generators", "labels", "name", "trusted", "flavor", "group",
        "algebra", "dim", "matrices", "generator_images", "matrix"]
SCALARS = (st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
           | st.floats() | st.text(max_size=4)
           | st.sampled_from(["cyclic", "symmetric", "dihedral", "table", "lie", "finite"]))
TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=24)
TEMPLATES = [
    {"kind": "cyclic", "n": 3},
    {"kind": "table", "mul": [[0, 1], [1, 0]], "generators": [1]},
    serialize.rep_to_spec(swap_rep()),
    serialize.rep_to_spec(dihedral_rep_s3()),
    serialize.operator_to_spec(swap_rep().generator_images[0]),
]
MUTATED = st.builds(lambda spec, key, value: dict(spec, **{key: value}),
                    st.sampled_from(TEMPLATES), st.sampled_from(KEYS), TREES)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=TREES | MUTATED)
def test_loaders_exit_cleanly_on_any_json(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    for argv in (["rep", "verify", "--in", str(path)],
                 ["group", "verify", "--in", str(path)],
                 ["group", "identify", "--in", str(path)],
                 ["rep", "make", "--kind", "left-regular", "--group", str(path)],
                 ["twirl", "--rep", str(PRESETS / "swap-adjoint.json"), "--op", str(path)],
                 ["decompose", "--rep", str(path)],
                 ["commutant", "--rep", str(path)],
                 ["equivariant", "--rep", str(path)],
                 ["symtest", "--h", str(path), "--rep", str(PRESETS / "swap-adjoint.json")]):
        _assert_exits_cleanly(argv)


TOLERANCES = st.floats(min_value=0.0, max_value=1e308, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(tol_abs=TOLERANCES, tol_rel=TOLERANCES)
def test_tolerance_flags_exit_cleanly(tol_abs, tol_rel):
    for cmd in ("decompose", "commutant", "equivariant"):
        _assert_exits_cleanly(["--tol-abs", repr(tol_abs), "--tol-rel", repr(tol_rel),
                               cmd, "--rep", str(PRESETS / "su2-tensor2.json")])


def _assert_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
