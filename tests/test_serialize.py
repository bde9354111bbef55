import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirep import linalg, serialize
from equirep.errors import ValidationError
from equirep.groups import GROUP_MAKERS
from equirep.serialize import dumps_report, mat_to_json


def _pairs(a):
    """Per-element reference: nested lists ending in [re, im] pairs."""
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [_pairs(x) for x in a]


def _array(shape, seed):
    rng = np.random.default_rng(seed)
    special = np.array([-0.0, 5e-324, 1e300, -1e300, 3.0, -2.0, 0.1, 1 / 3])
    n = int(np.prod(shape))
    re = np.concatenate([special, rng.standard_normal(n)])[:n]
    im = np.concatenate([special[::-1], rng.standard_normal(n) * 1e-17])[:n]
    return (re + 1j * im).reshape(shape)


def _template(shape: tuple[int, ...], indent: int) -> str:
    """``%``-template of a ``(*shape, 2)`` array as ``_write`` lays out its lists."""
    if not shape:
        return "[%.17g, %.17g]"
    if shape[0] == 0:
        return "[]"
    pad = "  " * indent
    item = pad + "  " + _template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def _oracle(a: np.ndarray, indent: int) -> str:
    """The array text by one ``"%.17g"`` template fill, as Python formats each float."""
    pairs = np.stack((a.real, a.imag), -1)
    return _template(pairs.shape[:-1], indent) % tuple(pairs.ravel().tolist())


def _written(a: np.ndarray, indent: int) -> str:
    out: list[str] = []
    serialize._write(a, out, indent)
    return "".join(out)


def _complex(values) -> np.ndarray:
    """Consecutive floats as the (re, im) parts of complex entries, bits kept."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if len(v) % 2:
        v = np.append(v, 0.0)
    return v.view(np.complex128)


def _assert_kernel_matches(values):
    a = _complex(values)
    text = _written(a, 0)
    expected = _oracle(a, 0)
    if text != expected:
        got, want = text.split("\n"), expected.split("\n")
        bad = [(w, g) for w, g in zip(want, got) if w != g]
        pytest.fail(f"{len(bad)} lines differ, first: {bad[:3]}")


@pytest.mark.parametrize("shape", [(0, 3, 3), (4, 3, 3), (3, 3), (5, 1), (1, 1), (2, 2, 2)])
@pytest.mark.parametrize("nest", [
    lambda x: x,
    lambda x: {"basis": x, "dim": 3},
    lambda x: {"outer": {"q": x, "tail": [1, 2.5]}},
    lambda x: [x, "label", {"m": x}],
])
def test_dumps_report_array_is_byte_equal_to_nested_lists(shape, nest):
    a = _array(shape, len(shape))
    text = dumps_report(nest(a))
    assert text == dumps_report(nest(_pairs(a)))
    assert text == dumps_report(nest(mat_to_json(a)))


def test_mat_to_json_equals_per_element_loop():
    a = _array((4, 3), 7)
    assert mat_to_json(a) == [[[float(x.real), float(x.imag)] for x in row] for row in a]
    assert mat_to_json([[1, 2], [3, 4]]) == [[[1.0, 0.0], [2.0, 0.0]], [[3.0, 0.0], [4.0, 0.0]]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
def test_dumps_report_rejects_non_finite_array(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValidationError):
        dumps_report({"q": a})
    with pytest.raises(ValidationError):
        dumps_report([a[None]])


# -- the array kernel against the template fill ------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                min_size=1, max_size=40))
def test_kernel_matches_template_on_any_finite_doubles(values):
    _assert_kernel_matches(values)


def test_kernel_matches_template_on_random_bit_patterns():
    bits = np.random.default_rng(12).integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                                               endpoint=False)
    values = bits.view(np.float64)
    _assert_kernel_matches(values[np.isfinite(values)])


def _dyadic_ties() -> np.ndarray:
    """r / 2**j for odd r: exact decimals of 18 digits ending in 5, so ties at 17."""
    rng = np.random.default_rng(8)
    out = []
    for j in range(2, 60):
        lo, hi = -(-10 ** 17 // 5 ** j), min((10 ** 18 - 1) // 5 ** j, 2 ** 53 - 1)
        if lo > hi:
            continue
        for r in {int(r) | 1 for r in rng.integers(lo, hi, 20, endpoint=True)}:
            if lo <= r <= hi:
                out.append(r / 2 ** j)
    return np.array(out)


def test_kernel_matches_template_on_exact_ties():
    # m / 4 for odd m near 1e15..2e15 lies halfway between two 17-digit decimals
    m = np.random.default_rng(3).integers(4 * 10 ** 15, 9 * 10 ** 15, 4000) | 1
    ties = m / 4
    assert np.all(ties * 4 == m)
    # the dyadic ties reach decimal exponents down to -13, where 10**k is not a double
    ties = np.concatenate([ties, _dyadic_ties()])
    _assert_kernel_matches(np.concatenate([ties, -ties]))


def test_kernel_defers_every_exact_tie_to_python():
    ties = np.concatenate([_dyadic_ties(), np.arange(4 * 10 ** 15 + 1, 4 * 10 ** 15 + 400, 2) / 4])
    _, _, unsure = serialize._digit_text(ties)
    assert unsure.all()


def test_kernel_matches_template_on_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{e}") for e in range(-25, 26)])
    values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)])
    _assert_kernel_matches(np.concatenate([values, -values]))


def test_kernel_matches_template_at_notation_boundaries():
    edges = np.array([1e-4, 1e-5, 1e16, 1e17, 99999999999999999.0, 9.9999999999999995e-5,
                      0.000099999999999999991, 99999999999999984.0, 1e17 - 16, 1e17 + 16])
    values = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0)])
    _assert_kernel_matches(np.concatenate([values, -values]))


def test_kernel_keeps_zeros_before_the_point_of_integer_floats():
    values = np.array([35235509701479760.0, 10000000000000000.0, 1e16 + 2, 12300000000000000.0,
                       100.0, 1000.0, 2e15, 7e10, 450.0, 1e22, 1e23])
    assert "%.17g" % values[0] == "35235509701479760"
    _assert_kernel_matches(np.concatenate([values, -values]))


def test_kernel_matches_template_at_the_ends_of_the_double_range():
    values = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
              2.2250738585072014e-308, 1e-250, 1e250, np.nextafter(1e-250, 0),
              np.nextafter(1e250, np.inf)]
    _assert_kernel_matches(values)
    assert _written(np.array([complex(-0.0, -0.0)]), 0) == "[\n  [-0, -0]\n]"


@pytest.mark.parametrize("chunk_bytes", [1, 97, 1000, 1 << 17])
def test_array_text_is_the_same_across_chunk_boundaries(monkeypatch, chunk_bytes):
    monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    a = _array((3, 7, 5), 5)
    a[1, 2] = 0.0
    a[2, :, 1] = -0.0
    assert _written(a, 1) == _oracle(a, 1)


def test_array_text_crosses_default_chunks():
    a = _array((9, 24, 24), 9)
    assert _written(a, 2) == _oracle(a, 2)


@pytest.mark.parametrize("shape", [(), (4,), (3, 3), (2, 3, 3), (2, 2, 2, 2),
                                   (0,), (0, 3), (3, 0), (2, 0, 4), (2, 3, 0), (0, 2, 2)])
@pytest.mark.parametrize("indent", [0, 1, 2, 3])
def test_array_text_matches_template_for_every_shape_and_indent(shape, indent):
    a = _array(shape, len(shape) + indent)
    assert _written(a, indent) == _oracle(a, indent)


def test_dataset_states_must_be_a_list():
    from equirep.representations import swap_rep
    rep_spec = serialize.rep_to_spec(swap_rep())
    with pytest.raises(ValidationError, match="'states' must be a JSON list"):
        serialize.dataset_from_spec({"task": "t", "rep": rep_spec, "states": 5})


def test_group_order_must_be_a_finite_integer():
    with pytest.raises(ValidationError, match="must be an integer"):
        serialize.group_from_spec({"kind": "cyclic", "n": float("inf")})


def test_null_labels_take_the_default_labels():
    g = serialize.group_from_spec({"kind": "table", "mul": [[0, 1], [1, 0]], "labels": None})
    assert g.element_labels == ["g0", "g1"]


# -- group specs: a made kind only for the maker's own table -----------------

def _reloaded(g):
    import json
    return serialize.group_from_spec(json.loads(dumps_report(serialize.group_to_spec(g))))


def test_direct_product_spec_is_its_table():
    from equirep.groups import _direct_product, make_cyclic
    g = _direct_product(make_cyclic(2), make_cyclic(12))
    assert serialize.group_to_spec(g)["kind"] == "table"
    back = _reloaded(g)
    assert np.array_equal(back.mul, g.mul) and back.generators == g.generators


def test_relabeled_generators_keep_their_table_spec():
    from equirep.groups import group_from_table, make_symmetric
    from equirep.representations import dihedral_rep_s3, finite_rep_from_images
    s3 = make_symmetric(3)
    g = group_from_table(s3.mul, s3.generators[::-1], s3.element_labels, "S_3")
    assert serialize.group_to_spec(g)["kind"] == "table"
    back = _reloaded(g)
    assert np.array_equal(back.mul, g.mul) and back.generators == g.generators
    images = dihedral_rep_s3().generator_images[::-1]
    rep = finite_rep_from_images(g, images, "swapped")
    loaded = serialize.rep_from_spec(serialize.rep_to_spec(rep))
    assert np.array_equal(loaded.representatives(), rep.representatives())


def test_only_a_maker_gives_a_made_spec():
    from equirep.groups import group_from_table
    for kind, n in (("cyclic", 6), ("symmetric", 3), ("dihedral", 4)):
        made = GROUP_MAKERS[kind](n)
        assert made.made == (kind, n)
        g = group_from_table(made.mul, made.generators, made.element_labels, made.name)
        assert g.made is None and serialize.group_to_spec(g)["kind"] == "table"
        back = _reloaded(g)
        assert np.array_equal(back.mul, g.mul) and back.generators == g.generators
        assert _reloaded(made).made == (kind, n)


@pytest.mark.parametrize("kind,n", [("cyclic", 1), ("cyclic", 2), ("cyclic", 12),
                                    ("cyclic", 2048), ("symmetric", 1), ("symmetric", 2),
                                    ("symmetric", 4), ("symmetric", 5), ("dihedral", 3),
                                    ("dihedral", 8), ("dihedral", 1024)])
def test_made_group_specs_keep_their_bytes(kind, n):
    made = GROUP_MAKERS[kind](n)
    text = dumps_report(serialize.group_to_spec(made))
    assert text == f'{{\n  "kind": "{kind}",\n  "n": {n}\n}}\n'


@pytest.mark.parametrize("kind", [[], {}, ["cyclic"], {"kind": "cyclic"}, 3, None])
def test_group_kind_that_is_no_known_string_is_refused(kind):
    with pytest.raises(ValidationError, match="unknown group kind"):
        serialize.group_from_spec({"kind": kind, "n": 3})


# -- matrix payloads: one strict array conversion -----------------------------

def loop_mat_from_json(data):
    a = np.array([[complex(c[0], c[1]) for c in row] for row in data])
    if not np.all(np.isfinite(a)):
        raise ValidationError("non-finite entry in matrix payload")
    return a


def _payloads(node):
    """Every list in a JSON tree that the per-entry loop reads as a matrix."""
    if isinstance(node, dict):
        for value in node.values():
            yield from _payloads(value)
    elif isinstance(node, list):
        try:
            if loop_mat_from_json(node).ndim == 2:
                yield node
                return
        except (TypeError, IndexError, ValueError):
            pass
        for item in node:
            yield from _payloads(item)


def test_every_preset_and_golden_payload_loads_with_the_loop_bits():
    import pathlib

    from equirep.cli import _load_json
    root = pathlib.Path(__file__).resolve().parent
    files = [*sorted((root.parent / "presets").glob("*.json")),
             *sorted((root / "golden").glob("*.json"))]
    count = 0
    for path in files:
        for payload in _payloads(_load_json(str(path))):
            want = loop_mat_from_json(payload)
            got = serialize.mat_from_json(payload)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), path.name
            count += 1
    assert count >= 10


def test_signed_zeros_and_mixed_numbers_keep_their_bits():
    payload = [[[-0.0, -0.0], [0, -0.0]], [[1, 2.5], [2 ** 62 + 1, -3]]]
    got = serialize.mat_from_json(payload)
    assert got.tobytes() == loop_mat_from_json(payload).tobytes()
    assert np.signbit(got.real[0, 0]) and np.signbit(got.imag[0, 1])


@pytest.mark.parametrize("payload,reason", [
    ([[[1, 0, 99]]], "number pairs"),
    ([[[1]]], "number pairs"),
    ([[1, 0]], "number pairs"),
    ([[[[1, 0]]]], "number pairs"),
    ([], "number pairs"),
    ([[]], "number pairs"),
    ([[[10 ** 400, 0]]], "number pairs"),
    ([[[1, 10 ** 400]], [[0.5, 0]]], "number pairs"),
    ([[["1", 0]]], "number pairs"),
    ([[[None, 0]]], "number pairs"),
    ([[[True, False]]], "number pairs"),
    ([[[2 ** 64, 0]]], "number pairs"),
    ([[[0, -2 ** 64]]], "number pairs"),
    ([[{"re": 1}]], "number pairs"),
    ("abc", "number pairs"),
    ({"0": [1, 0]}, "number pairs"),
    ([[[1, 0]], [[0, 0], [1, 0]]], "malformed"),
    ([[[float("nan"), 0]]], "non-finite"),
    ([[[0, float("-inf")]]], "non-finite"),
])
def test_malformed_matrix_payloads_are_refused(payload, reason):
    with pytest.raises(ValidationError, match=reason):
        serialize.mat_from_json(payload)


@pytest.mark.parametrize("payload", [[[[True, 0]]], [[[True, 0.5]], [[False, 1]]],
                                     [[[2 ** 63, -1]]]])
def test_booleans_among_numbers_and_large_integers_read_as_complex_does(payload):
    got = serialize.mat_from_json(payload)
    assert got.tobytes() == loop_mat_from_json(payload).tobytes()
