"""JSON serialization: group specs, representations, operators, reports.

Complex matrices are nested arrays of [re, im] pairs (never strings).
Floats are emitted with 17 significant digits, which round-trips IEEE
doubles bit-exactly and keeps reports byte-identical across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, ValidationError
from .groups import FiniteGroup, LieAlgebraBasis, group_from_table, make_cyclic, \
    make_dihedral, make_symmetric, verify_group_axioms
from .representations import Representation, finite_rep_from_images, require_unitary, \
    verify_homomorphism

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
    try:
        a = np.array([[complex(c[0], c[1]) for c in row] for row in data])
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError(f"malformed matrix payload: {exc}") from exc
    if not np.all(np.isfinite(a)):
        raise ValidationError("non-finite entry in matrix payload")
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


def _template(shape: tuple[int, ...], indent: int) -> str:
    """``%``-template of a ``(*shape, 2)`` array as ``_write`` lays out its lists."""
    if not shape:
        return "[%.17g, %.17g]"
    if shape[0] == 0:
        return "[]"
    pad = "  " * indent
    item = pad + "  " + _template(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


def _write(obj, out: list[str], indent: int):
    pad = "  " * indent
    if isinstance(obj, np.ndarray):
        pairs = _pair_array(obj)
        if not np.all(np.isfinite(pairs)):
            raise ValidationError("non-finite float in report")
        out.append(_template(pairs.shape[:-1], indent) % tuple(pairs.ravel().tolist()))
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
    :func:`mat_to_json` would be, but in bulk: one ``"%.17g"`` template
    built from its shape and indent is filled with all its floats by one
    ``%`` operation.  A non-finite float anywhere raises ``ValidationError``.
    """
    out: list[str] = []
    _write(obj, out, 0)
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# group specs

def group_to_spec(g: FiniteGroup) -> dict:
    kind = None
    if g.name.startswith("Z_"):
        kind = {"kind": "cyclic", "n": g.order}
    elif g.name.startswith("S_"):
        kind = {"kind": "symmetric", "n": int(g.name[2:])}
    elif g.name.startswith("D_"):
        kind = {"kind": "dihedral", "n": g.order // 2}
    if kind is None:
        return {
            "kind": "table",
            "mul": [[int(x) for x in row] for row in g.mul],
            "generators": list(map(int, g.generators)),
            "labels": list(g.element_labels),
            "name": g.name,
        }
    return kind


_GROUP_MAKERS = {"cyclic": make_cyclic, "symmetric": make_symmetric,
                 "dihedral": make_dihedral}


def group_from_spec(spec: dict) -> FiniteGroup:
    kind = _object(spec).get("kind")
    if kind in _GROUP_MAKERS:
        n = _field(spec, "n")
        try:
            n = int(n)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"group order n must be an integer, got {n!r}") from exc
        return _GROUP_MAKERS[kind](n)
    if kind == "table":
        g = group_from_table(_field(spec, "mul"),
                             spec.get("generators"),
                             spec.get("labels"),
                             spec.get("name", "group"))
        # explicit tables are verified on load; larger ones (where the cubic
        # associativity scan is off the table) must be declared trusted
        if g.order <= 512:
            if not verify_group_axioms(g).ok:
                raise ValidationError("explicit table fails the group axioms")
        elif not spec.get("trusted", False):
            raise ValidationError(
                "tables above order 512 must carry \"trusted\": true")
        return g
    raise InvalidParameterError(f"unknown group kind {kind!r}")


def lie_to_spec(alg: LieAlgebraBasis) -> dict:
    return _lie_spec(alg, mat_to_json)


def _lie_spec(alg: LieAlgebraBasis, mat) -> dict:
    return {"kind": "lie", "generators": mat(alg.generators), "name": alg.name}


def lie_from_spec(spec: dict) -> LieAlgebraBasis:
    gens = [mat_from_json(m) for m in _field(spec, "generators")]
    return LieAlgebraBasis(gens, name=spec.get("name", "lie-algebra"))


def source_from_spec(spec: dict):
    """Load either symmetry source: a finite group or a Lie algebra basis."""
    if _object(spec).get("kind") == "lie":
        return lie_from_spec(spec)
    return group_from_spec(spec)


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
        images = [mat_from_json(m) for m in _field(spec, "matrices")]
        rep = finite_rep_from_images(group, images, spec.get("name", "rep"))
    elif flavor == "lie":
        alg = lie_from_spec(_field(spec, "algebra"))
        images = [mat_from_json(m) for m in _field(spec, "generator_images")]
        if not images:
            raise ValidationError("lie spec has no generator images")
        rep = Representation(alg, "lie", images[0].shape[0],
                             spec.get("name", "rep"), generator_images=images)
    else:
        raise InvalidParameterError(f"unknown representation flavor {flavor!r}")
    require_unitary(rep)
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
              for s in _field(spec, "states")]
    params = {k: tuple(v) if isinstance(v, list) else v
              for k, v in spec.get("params", {}).items()}
    return Dataset(_field(spec, "task"), states, rep, params)
