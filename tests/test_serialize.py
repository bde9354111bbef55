import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equirep import linalg, serialize
from equirep.errors import ValidationError
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
