"""Command-line entry point: construct, verify, decompose, twirl, train, test.

Every report is deterministic JSON (17-significant-digit floats) carrying the
toolkit version, the seed, and the tolerances in effect.  Each ``_cmd_*``
handler returns its report body; ``run`` is the one writer, which puts the
header in front and writes the report to stdout and to ``--out``.  For
``make`` and ``task run``, ``--out`` names the artefact instead (the spec,
the CSV), which the handler writes.  Exit codes: 0 on success, 1 on
validation or usage errors, 2 on numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, decompose, linalg, serialize, tasks
from .equivariant import GENERATOR_PRESETS, check_equivariance, equivariant_generators
from .errors import NumericalError, ToolkitError, ValidationError
from .groups import GROUP_MAKERS, identify_small_group, make_cyclic, verify_group_axioms
from .linalg import Tolerance
from .representations import (
    bitflip_rep,
    dihedral_rep_s3,
    left_regular_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_rep,
    tensor_power,
    translation_rep,
    trivial_rep,
)
from .serialize import dumps_report
from .tasks import TrainConfig, symmetry_test
from .twirl import twirl_context, twirl_operator

class _CliParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _tolerance(text: str) -> float:
    """A ``--tol-*`` value: a finite, non-negative float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite non-negative number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as numpy's generators need."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _header(args) -> dict:
    action = getattr(args, "action", None)
    return {
        "toolkit": "equirep",
        "version": __version__,
        "command": args.cmd if action is None else f"{args.cmd} {action}",
        "seed": args.seed,
        "tolerances": {"absolute": args.tol_abs, "relative": args.tol_rel},
    }


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(report: dict, out_path: str | None):
    text = dumps_report(report)
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def _vlog(args, message: str):
    # progress notes go to stderr so stdout stays byte-deterministic
    if getattr(args, "verbose", False):
        print(f"equirep: {message}", file=sys.stderr)


def _json_int(text: str):
    """A JSON integer; ``-0`` stays a negative zero, as written from ``-0.0``."""
    return -0.0 if text == "-0" else int(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_json_int)
    except FileNotFoundError as exc:
        raise ValidationError(f"no such file: {path}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


def _infile(args) -> dict:
    """The JSON document named by ``--in``, which verify and identify need."""
    if args.infile is None:
        raise ValidationError(f"{args.cmd} {args.action} needs --in")
    return _load_json(args.infile)


def _make_group(args):
    if args.kind not in GROUP_MAKERS:    # --kind was not given
        raise ValidationError(f"unknown group kind {args.kind!r}")
    return GROUP_MAKERS[args.kind](args.n)


def _trivial(args):
    if args.dim == 0:  # negative dims are refused by trivial_rep
        raise ValidationError("--dim 0 gives a zero-dimensional carrier")
    return trivial_rep(make_cyclic(args.n), args.dim)


def _left_regular(args):
    if args.group:
        return left_regular_rep(serialize.group_from_spec(_load_json(args.group)))
    return left_regular_rep(make_cyclic(args.n))


# ``rep make --kind``: each kind's maker, reading the parsed arguments.
REP_MAKERS = {
    "trivial": _trivial,
    "perm-qubits": lambda args: perm_rep_qubits(args.n),
    "bitflip": lambda args: bitflip_rep(args.n),
    "swap": lambda args: swap_rep(),
    "dihedral-s3": lambda args: dihedral_rep_s3(),
    "su2-fundamental": lambda args: su2_fundamental(),
    "su2-tensor": lambda args: tensor_power(su2_fundamental(), args.k),
    "left-regular": _left_regular,
    "translation": lambda args: translation_rep(args.n),
}


def _make_rep(args):
    if args.kind not in REP_MAKERS:    # --kind was not given
        raise ValidationError(f"unknown representation kind {args.kind!r}")
    return REP_MAKERS[args.kind](args)


def _cmd_group(args, tol):
    if args.action == "make":
        g = _make_group(args)
        if args.out:
            _write(args.out, dumps_report(serialize.group_to_spec(g)))
        return {"name": g.name, "order": g.order, "written": args.out or ""}
    if args.action == "verify":
        # The loader would reject a failing table before its report is written.
        g = serialize._build_group(_infile(args))
        axioms = verify_group_axioms(g)
        return {
            "order": g.order,
            "associativity_violations": [list(v) for v in axioms.associativity_violations],
            "identity_ok": axioms.identity_ok,
            "inverses_ok": axioms.inverses_ok,
            "ok": axioms.ok,
        }
    g = serialize.group_from_spec(_infile(args))    # identify
    return {"order": g.order, "name": identify_small_group(g)}


def _cmd_rep(args, tol):
    if args.action == "make":
        rep = _make_rep(args)
        if args.out:
            _write(args.out, dumps_report(serialize._rep_spec(rep, np.asarray)))
        return {"name": rep.name, "dim": rep.dim, "flavor": rep.flavor,
                "written": args.out or ""}
    rep, residual = serialize._load_rep(_infile(args))    # verify
    return {"name": rep.name, "dim": rep.dim, "flavor": rep.flavor,
            "residual": residual, "ok": True}


def _cmd_commutant(args, tol):
    rep = serialize.rep_from_spec(_load_json(args.rep))
    comm = decompose.commutant_basis(rep, tol)
    return {"rep": rep.name, "dim": comm.dim, "basis": comm.basis}


def _cmd_decompose(args, tol):
    rep = serialize.rep_from_spec(_load_json(args.rep))
    _vlog(args, f"loaded {rep.name} (dim {rep.dim}, {rep.flavor})")
    dec = decompose.isotypic_decompose(rep, args.seed, tol)
    _vlog(args, f"blocks {dec.blocks}")
    return {
        "rep": rep.name,
        "blocks": [[d, m] for d, m in dec.blocks],
        "q": dec.q,
        "residuals": dec.residuals,
    }


def _cmd_twirl(args, tol):
    rep = serialize.rep_from_spec(_load_json(args.rep))
    op = serialize.operator_from_spec(_load_json(args.op))
    ctx = twirl_context(rep, args.mode, tol)
    twirled = twirl_operator(ctx, op)
    return {
        "rep": rep.name,
        "mode": ctx.mode,
        "twirled": twirled,
        "residuals": {"commutation": check_equivariance(twirled, rep)},
    }


def _cmd_equivariant(args, tol):
    rep = serialize.rep_from_spec(_load_json(args.rep))
    gens = equivariant_generators(rep, tol)
    report = {
        "rep": rep.name,
        "dim": gens.dim,
        "includes_identity": gens.includes_identity,
        "residuals": {"commutation": check_equivariance(gens.generators, rep)},
        "generators": gens.generators,
    }
    if args.preset:
        maker = GENERATOR_PRESETS.get(args.preset)
        if maker is None:
            raise ValidationError(
                f"unknown preset {args.preset!r}; available: {sorted(GENERATOR_PRESETS)}")
        named = maker()
        resid = max(linalg.frob(gens.project(h) - h) for h in named)
        report["preset"] = {
            "name": args.preset,
            "count": len(named),
            "in_span": bool(resid < 1e-8),
            "projection_residual": resid,
        }
    return report


def _cmd_task(args, tol):
    ds = tasks.make_dataset(args.name, args.samples, args.seed)
    _vlog(args, f"generated {len(ds.states)} samples for {args.name}")
    if args.dump_data:
        _write(args.dump_data, dumps_report(serialize._dataset_spec(ds, np.asarray)))
    model = tasks.default_task_model(ds, copies=args.k, tol=tol)
    model = tasks.initialize_parameters(model, args.seed)
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)
    trained, trace = tasks.train(model, ds, cfg)
    _vlog(args, f"trained {args.epochs} epochs, final loss {trace[-1][1]:.6f}")
    if args.out:
        _write(args.out, "epoch,loss,train_accuracy\n" + "".join(
            f"{epoch},{format(loss, '.17g')},{format(acc, '.17g')}\n"
            for epoch, loss, acc in trace))
    deviation = tasks.label_invariance_check(trained, ds.rep, ds, n_samples=20,
                                             rng_seed=args.seed)
    residual = check_equivariance(trained.circuit.unitary(), trained.circuit.gens.rep)
    return {
        "task": args.name,
        "k": args.k,
        "samples": args.samples,
        "epochs": args.epochs,
        "final_loss": trace[-1][1],
        "accuracy": trace[-1][2],  # the last row scores the trained model
        "invariance_deviation": deviation,
        "residuals": {"circuit_equivariance": residual},
        "csv": args.out or "",
    }


def _cmd_symtest(args, tol):
    h = serialize.operator_from_spec(_load_json(args.h))
    rep = serialize.rep_from_spec(_load_json(args.rep))
    result = symmetry_test(h, rep, tol)
    return {"rep": rep.name, "max_residual": result.max_residual,
            "commutes": result.commutes}


def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="equirep",
                   description="representation-theory toolkit for equivariant "
                               "quantum models")
    # global flags are accepted both before and after the subcommand; the
    # after-subcommand copies use SUPPRESS so they never clobber earlier values
    p.add_argument("--tol-abs", type=_tolerance, default=1e-10)
    p.add_argument("--tol-rel", type=_tolerance, default=1e-9)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--verbose", action="store_true", default=False)
    common = _CliParser(add_help=False)
    common.add_argument("--tol-abs", type=_tolerance, default=argparse.SUPPRESS)
    common.add_argument("--tol-rel", type=_tolerance, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_CliParser)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    g = add_parser("group", help="make/verify/identify finite groups")
    g.add_argument("action", choices=["make", "verify", "identify"])
    g.add_argument("--kind", choices=list(GROUP_MAKERS))
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--in", dest="infile")
    g.add_argument("--out")

    r = add_parser("rep", help="make/verify representations")
    r.add_argument("action", choices=["make", "verify"])
    r.add_argument("--kind", choices=list(REP_MAKERS))
    r.add_argument("--n", type=int, default=2)
    r.add_argument("--k", type=int, default=2)
    r.add_argument("--dim", type=int, default=2)
    r.add_argument("--group")
    r.add_argument("--in", dest="infile")
    r.add_argument("--out")

    c = add_parser("commutant", help="Hermitian basis of the commutant")
    c.add_argument("--rep", required=True)
    c.add_argument("--out")

    d = add_parser("decompose", help="isotypic block decomposition")
    d.add_argument("--rep", required=True)
    d.add_argument("--out")

    t = add_parser("twirl", help="project an operator onto the invariants")
    t.add_argument("--rep", required=True)
    t.add_argument("--op", required=True)
    t.add_argument("--mode", choices=["average", "projection"])
    t.add_argument("--out")

    e = add_parser("equivariant", help="equivariant generator basis")
    e.add_argument("--rep", required=True)
    e.add_argument("--preset")
    e.add_argument("--out")

    k = add_parser("task", help="run a classification task end to end")
    k.add_argument("action", choices=["run"])
    k.add_argument("--name", required=True, choices=list(tasks.TASKS))
    k.add_argument("--k", type=int, default=1)
    k.add_argument("--epochs", type=int, default=200)
    k.add_argument("--samples", type=int, default=200)
    k.add_argument("--lr", type=float, default=0.5)
    k.add_argument("--out")
    k.add_argument("--dump-data")

    s = add_parser("symtest", help="commutation test of a Hamiltonian")
    s.add_argument("--h", required=True)
    s.add_argument("--rep", required=True)
    s.add_argument("--out")
    return p


_DISPATCH = {
    "group": _cmd_group,
    "rep": _cmd_rep,
    "commutant": _cmd_commutant,
    "decompose": _cmd_decompose,
    "twirl": _cmd_twirl,
    "equivariant": _cmd_equivariant,
    "task": _cmd_task,
    "symtest": _cmd_symtest,
}


# Built once: parse_args only reads the parser, so runs share it.
_PARSER = build_parser()


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        body = _DISPATCH[args.cmd](args, Tolerance(args.tol_abs, args.tol_rel))
        # make and task run write their artefact to --out, not the report
        artefact = getattr(args, "action", None) in ("make", "run")
        _emit({**_header(args), **body}, None if artefact else args.out)
        return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
