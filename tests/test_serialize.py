import numpy as np
import pytest

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
