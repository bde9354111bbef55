"""Arbitrary JSON through every CLI loader: each run ends in a clean exit code.

Trees are drawn freely and also as valid specs with one field replaced, so
that the draws reach past the first type checks of each loader.
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
                 ["twirl", "--rep", str(PRESETS / "swap-adjoint.json"), "--op", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
