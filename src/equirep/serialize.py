"""JSON serialization: group specs, representations, operators, reports.

Complex matrices are nested arrays of [re, im] pairs (never strings).
Floats are emitted with 17 significant digits, which round-trips IEEE
doubles bit-exactly and keeps reports byte-identical across runs.

The floats of an ndarray in a report are formatted in bulk by a numpy
kernel that writes the exact text of Python's ``"%.17g"``, after the fast
path with an exact fallback of Loitsch (2010) in its fixed-precision form
(Adams 2019): a double-double product gives the 17 digits and the decimal
exponent, and the few values whose rounding it cannot decide (near-ties,
magnitudes outside 1e-250..1e250) are formatted by ``"%.17g"`` itself.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidParameterError, ValidationError
from .groups import GROUP_MAKERS, FiniteGroup, LieAlgebraBasis, group_from_table, \
    verify_group_axioms
from .representations import Representation, finite_rep_from_images, verify_homomorphism

__all__ = [
    "mat_to_json", "mat_from_json", "dumps_report",
    "group_to_spec", "group_from_spec", "lie_to_spec", "lie_from_spec",
    "rep_to_spec", "rep_from_spec", "operator_to_spec", "operator_from_spec",
]


def _pair_array(a) -> np.ndarray:
    """A complex array as a float array with a last axis of ``(re, im)``."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1)


def mat_to_json(a: np.ndarray):
    """A complex array as nested lists that end in ``[re, im]`` pairs."""
    return _pair_array(a).tolist()


def mat_from_json(data) -> np.ndarray:
    """The complex matrix of a payload of rows of ``[re, im]`` pairs.

    The payload is read as one array, which must come out of integer or
    float dtype in shape ``(rows, cols, 2)`` with finite entries: strings,
    nulls, all-boolean payloads and integers of magnitude 2**64 or more are
    refused, while a boolean among numbers reads as 0 or 1, as ``complex``
    reads it.  The real and imaginary parts are filled in place, so a signed
    zero keeps its sign.
    """
    try:
        pairs = np.asarray(data)
    except ValueError as exc:       # ragged nesting
        raise ValidationError(f"malformed matrix payload: {exc}") from exc
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValidationError("malformed matrix payload: need rows of [re, im] number pairs, "
                              f"got {pairs.dtype} entries in shape {pairs.shape}")
    if not np.all(np.isfinite(pairs)):
        raise ValidationError("non-finite entry in matrix payload")
    a = np.empty(pairs.shape[:2], dtype=complex)
    a.real, a.imag = pairs[..., 0], pairs[..., 1]
    return a


def _object(spec) -> dict:
    """A spec, which must be a JSON object."""
    if not isinstance(spec, dict):
        raise ValidationError(f"spec must be a JSON object, got {type(spec).__name__}")
    return spec


def _field(spec, key: str):
    """A required entry of a spec; a missing one is a validation error."""
    if key not in _object(spec):
        raise ValidationError(f"spec lacks the required field {key!r}")
    return spec[key]


def _list(spec, key: str, required: bool = True):
    """A spec entry that the loaders iterate: a JSON list, or None if optional and absent."""
    if not required and _object(spec).get(key) is None:
        return None
    value = _field(spec, key)
    if not isinstance(value, list):
        raise ValidationError(
            f"spec field {key!r} must be a JSON list, got {type(value).__name__}")
    return value


def _name(spec, default: str) -> str:
    """A spec's optional display name, which must be a JSON string."""
    name = _object(spec).get("name", default)
    if not isinstance(name, str):
        raise ValidationError(f"spec field 'name' must be a JSON string, got {type(name).__name__}")
    return name


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValidationError("non-finite float in report")
        return format(v, ".17g")
    raise ValidationError(f"unsupported scalar {type(x)}")


# ---------------------------------------------------------------------------
# report arrays: the exact "%.17g" text of many floats at once

_WIDTH = 24                    # longest "%.17g" text: "-1.2345678901234567e-308"
_CELL = _WIDTH + 2             # one value's text, then ", " or two NULs
_FAST_MIN, _FAST_MAX = 1e-250, 1e250    # every product below stays a normal double
_TIE_MARGIN = 1e-6             # far wider than the ~1e-14 error of the products
_SPLIT = 134217729.0           # 2**27 + 1: Veltkamp's splitting constant
_E16, _E17 = 10 ** 16, 10 ** 17
_POW_OFFSET = 300
# 10**k as a double-double in column k + _POW_OFFSET: the high and low halves
# of its head, then its tail; each column is built when first needed
_POW10 = np.full((3, 2 * _POW_OFFSET + 1), np.nan)
# the four ASCII digits of 0..9999 as one uint32 each, and their trailing zeros
_QUADS = np.arange(10_000, dtype=np.int16)
_DIGITS4 = (_QUADS[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_TRAILING_ZEROS4 = sum(_QUADS % 10 ** j == 0 for j in range(1, 5)).astype(np.int8)

# Columns of the per-value source rows: 17 digits, then the characters the
# layouts below place around them.
_POINT, _ZERO, _EXP, _EXP_SIGN, _EXP_DIGITS, _NUL, _SOURCE = 17, 18, 19, 20, 21, 24, 25


def _layouts() -> np.ndarray:
    """Source column of each output byte for every ``%g`` layout of a nonzero value.

    Rows 0-20 are fixed notation for decimal exponents -4..16, row 21
    exponent notation with two exponent digits and row 22 with three.
    """
    digits = list(range(17))
    rows = [[_ZERO, _POINT] + [_ZERO] * (-x - 1) + digits if x < 0
            else digits[:x + 1] + [_POINT] + digits[x + 1:] for x in range(-4, 17)]
    for skip in (1, 0):
        rows.append([0, _POINT] + digits[1:] + [_EXP, _EXP_SIGN]
                    + list(range(_EXP_DIGITS + skip, _EXP_DIGITS + 3)))
    table = np.full((len(rows), _WIDTH - 1), _NUL, dtype=np.intp)
    for i, row in enumerate(rows):
        table[i, :len(row)] = row
    return table


_LAYOUT = _layouts()


def _pow10(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-double 10**k: the high and low halves of its head, and its tail."""
    col = k + _POW_OFFSET
    if np.isnan(_POW10[0].take(col)).any():
        for j in np.unique(col).tolist():
            e = j - _POW_OFFSET
            if e >= 0:
                head = float(10 ** e)
                tail = float(10 ** e - int(head))
            else:
                den = 10 ** -e
                head = 1 / den                  # int division rounds correctly
                num, two = head.as_integer_ratio()
                tail = (two - num * den) / (two * den)
            c = _SPLIT * head
            high = c - (c - head)
            _POW10[:, j] = high, head - high, tail
    return _POW10[0].take(col), _POW10[1].take(col), _POW10[2].take(col)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**k`` rounded to the nearest int64, and what it was rounded by.

    The product is a double-double (Dekker's exact product of ``a`` and the
    head of 10**k, plus ``a`` times the tail), accurate to about 1e-14 when
    it lies near 1e16..1e17, where its head is an even integer.
    """
    high, low, tail = _pow10(k)
    c = _SPLIT * a
    a_high = c - (c - a)
    a_low = a - a_high
    head = a * (high + low)
    err = ((a_high * high - head) + a_high * low + a_low * high) + a_low * low
    rest = err + a * tail
    step = np.rint(rest)
    return head.astype(np.int64) + step.astype(np.int64), rest - step


def _ascii4(quads: np.ndarray) -> np.ndarray:
    """``(4, n)`` ASCII digits of integers in 0..9999, zero padded, one column each."""
    return _DIGITS4.take(quads).view(np.uint8).reshape(-1, 4).T


def _digit_text(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``%.17g`` text of positive ``a`` within the fast range, one column per value.

    Returns ``(text, order, unsure)``: column i of the NUL-padded ``(23, n)``
    ``text`` is the text of ``a[order[i]]``, and ``unsure[i]`` marks a
    column whose rounding the products cannot decide, whose text must come
    from ``"%.17g"`` instead.  The values are sorted by layout, so that each
    layout is written by one gather of whole source rows.
    """
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    digits, frac = _scaled(a, k)
    # log10 may miss the decimal exponent by one next to a power of ten
    up = (digits < _E16) | ((digits == _E16) & (frac < 0))
    down = digits > _E17
    redo = np.flatnonzero(up | down)
    if redo.size:
        k[redo] += up[redo].astype(np.int64) - down[redo]
        digits[redo], frac[redo] = _scaled(a[redo], k[redo])
    unsure = (np.abs(frac) > 0.5 - _TIE_MARGIN) | (digits < _E16) | (digits > _E17)
    carry = digits == _E17
    digits[carry] = _E16
    x = 16 - k + carry                          # decimal exponent of the leading digit
    fixed = (x >= -4) & (x < 17)
    layout = np.where(fixed, x + 4, 21 + (np.abs(x) >= 100)).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    layout, digits, x, fixed = layout[order], digits[order], x[order], fixed[order]

    src = np.empty((_SOURCE, len(a)), dtype=np.uint8)
    lead = digits // _E16
    rest = digits - lead * _E16
    top = rest // 10 ** 8
    bottom = rest - top * 10 ** 8
    src[0] = lead + ord("0")                  # then four groups of four digits
    # %g strips trailing zeros after the point, and the point if nothing follows
    count = np.full(len(a), 17)               # digits up to the last nonzero one
    run = np.ones(len(a), dtype=bool)         # every later group is zero
    for row, part in ((9, bottom), (1, top)):
        high = part // 10 ** 4
        low = part - high * 10 ** 4
        src[row:row + 4] = _ascii4(high)
        src[row + 4:row + 8] = _ascii4(low)
        for quad in (low, high):
            count -= run * _TRAILING_ZEROS4.take(quad)
            run &= quad == 0
    whole = np.where(fixed, np.maximum(x, -1), 0)   # index of the last digit before the point
    keep = np.maximum(count, whole + 1)
    src[:17] *= np.arange(17)[:, None] < keep
    src[_POINT] = np.where(count - 1 > whole, ord("."), 0)
    src[_ZERO] = ord("0")
    src[_EXP] = ord("e")
    src[_EXP_SIGN] = np.where(x < 0, ord("-"), ord("+"))
    src[_EXP_DIGITS:_EXP_DIGITS + 3] = _ascii4(np.abs(x))[1:]
    src[_NUL] = 0
    text = np.empty((_WIDTH - 1, len(a)), dtype=np.uint8)
    bounds = np.searchsorted(layout, np.arange(len(_LAYOUT) + 1))
    for i in np.flatnonzero(np.diff(bounds)).tolist():
        text[:, bounds[i]:bounds[i + 1]] = src[_LAYOUT[i], bounds[i]:bounds[i + 1]]
    return text, order, unsure[order]


def _float_rows(v: np.ndarray) -> np.ndarray:
    """``(n, _CELL)`` rows with the ``"%.17g"`` text of each finite ``v``, NUL padded.

    Zeros need no arithmetic; values outside the fast range, and the rare
    ones whose rounding :func:`_digit_text` cannot decide, are formatted by
    ``"%.17g"`` one at a time.
    """
    rows = np.zeros((len(v), _CELL), dtype=np.uint8)
    rows[:, 0] = np.signbit(v) * np.uint8(ord("-"))
    a = np.abs(v)
    rows[a == 0, 1] = ord("0")
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    slow = np.flatnonzero(~fast & (a != 0))
    fast = np.flatnonzero(fast)
    if fast.size:
        text, order, unsure = _digit_text(a[fast])
        fast = fast[order]
        rows[fast, 1:_WIDTH] = text.T
        slow = np.concatenate((slow, fast[unsure]))
    for i in slow.tolist():
        text = b"%.17g" % v[i]
        rows[i, :_WIDTH] = 0
        rows[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return rows


def _separators(depth: int, indent: int) -> tuple[str, np.ndarray]:
    """The text before the first pair, and the text after each pair.

    Row m of the table, NUL padded, follows a pair whose last m indices are
    at their last value: it closes the pair and m lists, and unless
    m = ``depth`` (the end of the array) opens as many again and the next pair.
    """
    def pad(level):
        return "  " * (indent + level)
    opens = ["[\n" + pad(level) for level in range(1, depth + 1)]
    closes = ["\n" + pad(level - 1) + "]" for level in range(depth, 0, -1)]
    texts = ["]" + "".join(closes[:m])
             + (",\n" + pad(depth - m) + "".join(opens[depth - m:]) + "[" if m < depth else "")
             for m in range(depth + 1)]
    table = np.zeros((depth + 1, max(map(len, texts))), dtype=np.uint8)
    for row, text in zip(table, texts):
        row[:len(text)] = np.frombuffer(text.encode(), dtype=np.uint8)
    return "".join(opens) + "[", table


def _empty_text(shape: tuple[int, ...], indent: int) -> str:
    """The nested lists of an array with no entries."""
    if shape[0] == 0:
        return "[]"
    pad = "  " * indent
    item = pad + "  " + _empty_text(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def _chunk_text(values: np.ndarray, after: np.ndarray) -> str:
    """The text of consecutive ``(re, im)`` values, with ``after[i]`` after pair i."""
    rows = _float_rows(values)
    rows[0::2, _WIDTH:] = np.frombuffer(b", ", dtype=np.uint8)
    buf = np.concatenate((rows.reshape(len(after), 2 * _CELL), after), axis=1)
    return str(memoryview(buf[buf != 0]), "ascii")


def _write_array(pairs: np.ndarray, out: list[str], indent: int):
    """Append the nested ``[re, im]`` lists of a finite ``(*shape, 2)`` float array."""
    shape = pairs.shape[:-1]
    if pairs.size == 0:
        out.append(_empty_text(shape, indent))
        return
    depth = len(shape)
    prefix, table = _separators(depth, indent)
    # which separator follows each pair: the count of its trailing last indices
    ends = np.zeros(shape, dtype=np.intp)
    for m in range(1, depth + 1):
        ends[(slice(None),) * (depth - m) + tuple(s - 1 for s in shape[depth - m:])] += 1
    ends = ends.ravel()
    flat = pairs.reshape(-1)
    chunk = max(1, linalg._CHUNK_BYTES // (2 * _CELL + table.shape[1]))
    out.append(prefix)
    for start in range(0, len(ends), chunk):
        stop = min(start + chunk, len(ends))
        out.append(_chunk_text(flat[2 * start:2 * stop], table[ends[start:stop]]))


def _write(obj, out: list[str], indent: int):
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        pairs = _pair_array(obj)
        if not np.all(np.isfinite(pairs)):
            raise ValidationError("non-finite float in report")
        _write_array(pairs, out, indent)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f'{pad}  "{k}": ')
            _write(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(v, (int, float, bool, np.integer, np.floating))
                     for v in seq)
        if simple:
            out.append("[" + ", ".join(_fmt(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _write(v, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'"{escaped}"')
    elif obj is None:
        out.append("null")
    else:
        out.append(_fmt(obj))


def dumps_report(obj) -> str:
    """Deterministic JSON text with fixed 17-significant-digit floats.

    Dicts, lists, strings and scalars are written one by one.  An
    ``np.ndarray`` is written as a complex array, byte for byte as its
    :func:`mat_to_json` would be, but in bulk: chunks of ``(re, im)`` pairs
    of about ``linalg._CHUNK_BYTES`` of text rows are formatted by the
    vectorised ``"%.17g"`` kernel into NUL-padded byte rows, followed by the
    brackets, commas and indentation that the array's shape and indent fix,
    and one boolean index drops the padding.  Zeros skip the arithmetic.
    A non-finite float anywhere raises ``ValidationError``.
    """
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# group specs

def group_to_spec(g: FiniteGroup) -> dict:
    """The kind and n of a made group, else the explicit table."""
    if g.made:
        kind, n = g.made
        return {"kind": kind, "n": n}
    return {
        "kind": "table",
        "mul": [[int(x) for x in row] for row in g.mul],
        "generators": list(map(int, g.generators)),
        "labels": list(g.element_labels),
        "name": g.name,
    }


def group_from_spec(spec: dict) -> FiniteGroup:
    g = _build_group(spec)
    # explicit tables are verified on load, up to the order where
    # _build_group starts to demand that they be declared trusted
    if spec["kind"] == "table" and g.order <= 512 and not verify_group_axioms(g).ok:
        raise ValidationError("explicit table fails the group axioms")
    return g


def _build_group(spec: dict) -> FiniteGroup:
    """The group a spec describes, with an explicit table not yet verified."""
    kind = _object(spec).get("kind")
    if isinstance(kind, str) and kind in GROUP_MAKERS:
        n = _field(spec, "n")
        if isinstance(n, float) and n.is_integer():
            n = int(n)  # an integer as JSON Schema counts them: 1e9 is one, 2.5 is not
        return GROUP_MAKERS[kind](n)
    if kind == "table":
        trusted = spec.get("trusted", False)
        if not isinstance(trusted, bool):
            raise ValidationError(f"\"trusted\" must be a JSON boolean, got {trusted!r}")
        g = group_from_table(_field(spec, "mul"),
                             spec.get("generators"),
                             _list(spec, "labels", required=False),
                             _name(spec, "group"))
        # the cubic associativity scan is off the table above order 512
        if g.order > 512 and not trusted:
            raise ValidationError(
                "tables above order 512 must carry \"trusted\": true")
        return g
    raise InvalidParameterError(f"unknown group kind {kind!r}")


def lie_to_spec(alg: LieAlgebraBasis) -> dict:
    return _lie_spec(alg, mat_to_json)


def _lie_spec(alg: LieAlgebraBasis, mat) -> dict:
    return {"kind": "lie", "generators": mat(alg.generators), "name": alg.name}


def lie_from_spec(spec: dict) -> LieAlgebraBasis:
    gens = [mat_from_json(m) for m in _list(spec, "generators")]
    return LieAlgebraBasis(gens, name=_name(spec, "lie-algebra"))


# ---------------------------------------------------------------------------
# representation specs

# largest homomorphism residual a loaded representation may have
_MAX_RESIDUAL = 1e-8


def rep_to_spec(rep: Representation) -> dict:
    return _rep_spec(rep, mat_to_json)


def _rep_spec(rep: Representation, mat) -> dict:
    """The spec of :func:`rep_to_spec`, with ``mat`` applied to every matrix stack.

    ``mat_to_json`` gives JSON-native lists; ``np.asarray`` keeps the
    ndarrays, which :func:`dumps_report` writes to the same bytes in bulk.
    """
    if rep.flavor == "finite":
        return {
            "flavor": "finite",
            "group": group_to_spec(rep.group),
            "dim": rep.dim,
            "name": rep.name,
            "matrices": mat(rep.generator_images),
        }
    return {
        "flavor": "lie",
        "algebra": _lie_spec(rep.algebra, mat),
        "dim": rep.dim,
        "name": rep.name,
        "generator_images": mat(rep.generator_images),
    }


def rep_from_spec(spec: dict) -> Representation:
    """Load a unitary representation and re-verify the homomorphism property.

    Raises:
        ValidationError: on a malformed spec, images that do not form one
            ``(count, dim, dim)`` stack, non-unitary images, or a homomorphism
            residual above 1e-8.
    """
    return _load_rep(spec)[0]


def _load_rep(spec: dict) -> tuple[Representation, float]:
    """:func:`rep_from_spec`, also returning the homomorphism residual it checked."""
    flavor = _object(spec).get("flavor")
    if flavor == "finite":
        group = group_from_spec(_field(spec, "group"))
        images = [mat_from_json(m) for m in _list(spec, "matrices")]
        rep = finite_rep_from_images(group, images, _name(spec, "rep"))
    elif flavor == "lie":
        alg = lie_from_spec(_field(spec, "algebra"))
        images = [mat_from_json(m) for m in _list(spec, "generator_images")]
        if not images:
            raise ValidationError("lie spec has no generator images")
        rep = Representation(alg, "lie", images[0].shape[0],
                             _name(spec, "rep"), generator_images=images)
    else:
        raise InvalidParameterError(f"unknown representation flavor {flavor!r}")
    residual = verify_homomorphism(rep)
    if residual > _MAX_RESIDUAL:
        raise ValidationError(
            f"loaded representation fails verification (residual {residual:.3e})")
    return rep, residual


def operator_to_spec(a: np.ndarray, name: str = "operator") -> dict:
    return {"name": name, "matrix": mat_to_json(a)}


def operator_from_spec(spec: dict) -> np.ndarray:
    return mat_from_json(_field(spec, "matrix"))


# ---------------------------------------------------------------------------
# datasets

def dataset_to_spec(ds) -> dict:
    return _dataset_spec(ds, mat_to_json)


def _dataset_spec(ds, mat) -> dict:
    """The spec of :func:`dataset_to_spec`, with ``mat`` applied as in :func:`_rep_spec`."""
    return {
        "task": ds.name,
        "params": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in ds.params.items()},
        "rep": _rep_spec(ds.rep, mat),
        "states": [
            {"rho": mat(s.rho), "label": float(s.label), "meta": s.meta}
            for s in ds.states
        ],
    }


def dataset_from_spec(spec: dict):
    from .tasks import Dataset, LabeledState
    rep = rep_from_spec(_field(spec, "rep"))
    states = [LabeledState(mat_from_json(_field(s, "rho")), float(_field(s, "label")),
                           dict(s.get("meta", {})))
              for s in _list(spec, "states")]
    params = {k: tuple(v) if isinstance(v, list) else v
              for k, v in spec.get("params", {}).items()}
    return Dataset(_field(spec, "task"), states, rep, params)
