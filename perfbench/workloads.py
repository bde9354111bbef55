"""The four workloads: fixed op mixes over inputs made from the seed.

A workload is a class whose constructor, given the seed and the checkout
root, builds what every pass reuses; this is the set-up.  Its
``ops(pass_index)`` draws that pass's inputs (untimed) and returns the op
list; each op is a callable into equirep plus a numpy-only check of its
result.  Input sizes are fixed; only
values depend on the seed, so timings are comparable across seeds.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import equirep as er
from equirep import cli, serialize, tasks

import checks


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gaussian(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def conjugated(rep, u: np.ndarray):
    """The same representation in the basis given by the unitary u."""
    name = f"{rep.name}~haar"
    mats = [u @ k @ u.conj().T for k in rep.generator_representatives()]
    if rep.flavor == "finite":
        return er.finite_rep_from_images(rep.group, mats, name)
    return er.Representation(rep.source, "lie", rep.dim, name, generator_images=mats)


def generators(rep) -> list[np.ndarray]:
    return [np.array(k) for k in rep.generator_representatives()]


def materialize(rep):
    """Fill a finite rep's element cache so no op pays for it."""
    if rep.flavor == "finite":
        rep.representatives()
    return rep


# ---------------------------------------------------------------------------
# certify: commutant solves and isotypic splits up to d = 32

COMM_DIM = {"su2x3": 5, "su2x4": 14, "su2x5": 42, "perm3": 20, "perm4": 35,
            "perm5": 56, "regS4": 24, "regD6": 12}
COMMUTANT_OPS = ("su2x3", "su2x4", "su2x5", "perm3", "perm4")
DECOMPOSE_OPS = ("su2x3", "su2x4", "su2x5", "perm3", "perm4", "perm5", "regS4", "regD6")
CONJUGATED = ("su2x3", "su2x4", "perm3", "perm4")
COMM_DIM.update({name + "~haar": COMM_DIM[name] for name in CONJUGATED})


class Certify:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        su2 = er.su2_fundamental()
        reps = {f"su2x{k}": er.tensor_power(su2, k) for k in (2, 3, 4, 5)}
        reps["su2"] = su2
        reps.update({f"perm{n}": er.perm_rep_qubits(n) for n in (3, 4, 5)})
        reps["regS4"] = er.left_regular_rep(er.make_symmetric(4))
        reps["regD6"] = er.left_regular_rep(er.make_dihedral(6))
        rng = np.random.default_rng([seed, 1])
        for name in CONJUGATED:
            reps[name + "~haar"] = conjugated(reps[name], haar(reps[name].dim, rng))
        self.reps = {k: materialize(r) for k, r in reps.items()}
        self.gens = {k: generators(r) for k, r in self.reps.items()}

    def commutant(self, name: str) -> Op:
        rep, gens = self.reps[name], self.gens[name]
        return Op(f"commutant {name}", lambda: er.commutant_basis(rep),
                  lambda c: checks.commutant(c.basis, gens, rep.dim, COMM_DIM[name]))

    def decompose(self, name: str, rng_seed: int) -> Op:
        rep, gens = self.reps[name], self.gens[name]

        def run():
            dec = er.isotypic_decompose(rep, rng_seed)
            return dec, er.decompose.decomposition_residuals(rep, dec, rng_seed)

        def check(out):
            dec, residuals = out
            checks.require(max(residuals.values()) <= checks.RESIDUAL,
                           f"reported residuals {residuals}")
            checks.decomposition(dec.q, dec.blocks, dec.block_offsets, gens, rep.dim,
                                 COMM_DIM[name])
        return Op(f"decompose {name}", run, check)

    def intertwiner(self, r: str, s: str, verdict: str, kernel_dim: int) -> Op:
        rep_r, rep_s = self.reps[r], self.reps[s]
        return Op(f"intertwiner {r}->{s}", lambda: er.find_intertwiner(rep_r, rep_s),
                  lambda res: checks.intertwiner(res, self.gens[r], self.gens[s],
                                                 verdict, kernel_dim))

    def ops(self, p: int) -> list[Op]:
        rng_seed = self.seed * 1000 + p
        out = [self.commutant(n) for n in COMMUTANT_OPS]
        out += [self.commutant(n + "~haar") for n in CONJUGATED]
        out += [self.decompose(n, rng_seed) for n in DECOMPOSE_OPS]
        out += [self.decompose(n + "~haar", rng_seed) for n in CONJUGATED]
        out += [
            self.intertwiner("su2x3", "su2x3~haar", "equivalent", COMM_DIM["su2x3"]),
            self.intertwiner("perm4", "perm4~haar", "equivalent", COMM_DIM["perm4"]),
            self.intertwiner("su2x3", "su2", "partial", 2),
            self.intertwiner("su2x2", "su2", "zero-only", 0),
        ]

        def schur_weyl_check(r):
            checks.require(r.ok and r.pairing_ok, "Schur-Weyl duality not confirmed")
            checks.require((r.perm_commutant_dim, r.tensor_commutant_dim) == (35, 14),
                           f"commutant dims {r.perm_commutant_dim}, {r.tensor_commutant_dim}")
        out.append(Op("schur_weyl 2,4", lambda: er.schur_weyl_check(2, 4, rng_seed=rng_seed),
                      schur_weyl_check))
        return out


# ---------------------------------------------------------------------------
# twirl: a fixed commutant basis read many times, plus the Haar sampler

BATCH = 64
MC_SAMPLES = 20000


class Twirl:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        su2 = er.su2_fundamental()
        perm4 = materialize(er.perm_rep_qubits(4))
        self.contexts = {
            "su2x4": er.twirl_context(er.tensor_power(su2, 4)),
            "su2x5": er.twirl_context(er.tensor_power(su2, 5)),
            "perm4 average": er.twirl_context(perm4, "average"),
            "perm4 projection": er.twirl_context(perm4, "projection"),
        }
        self.swap = materialize(er.swap_rep())
        self.perm4_elements = [np.array(m) for m in perm4.representatives()]
        self.swap_elements = [np.array(m) for m in self.swap.representatives()]

    def oracle(self, name: str, o: np.ndarray) -> np.ndarray:
        if name.startswith("perm4"):
            return checks.group_average(o, self.perm4_elements)
        return checks.perm_span_projection(o, 2, int(name[-1]))

    def batch(self, name: str, rng) -> Op:
        ctx = self.contexts[name]
        inputs = [gaussian(ctx.rep.dim, rng) for _ in range(BATCH)]

        def check(outs):
            for o, t in zip(inputs, outs):
                checks.close(t, self.oracle(name, o), f"twirl {name} differs from the oracle")
        return Op(f"twirl {name} x{BATCH}",
                  lambda: [er.twirl_operator(ctx, o) for o in inputs], check)

    def ops(self, p: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, p])
        out = [self.batch(name, rng) for name in self.contexts]
        for k in (3, 4):
            o = gaussian(2 ** k, rng)
            out.append(Op(f"k_design 2,{k}", lambda o=o, k=k: er.k_design_twirl(2, k, o),
                          lambda t, o=o, k=k: checks.close(
                              t, checks.perm_span_projection(o, 2, k),
                              "k-design twirl differs from the commutant projection")))
        h = gaussian(4, rng)
        h = h + h.conj().T
        h /= np.linalg.norm(h)
        mc_seed = int(rng.integers(2 ** 31))
        out.append(Op(f"monte_carlo 2,2 n={MC_SAMPLES}",
                      lambda: er.monte_carlo_k_design_twirl(2, 2, h, MC_SAMPLES, mc_seed),
                      lambda t: checks.monte_carlo(t, checks.perm_span_projection(h, 2, 2),
                                                   MC_SAMPLES)))
        u = haar(4, rng)
        phi = np.kron(u, u.conj())
        out.append(Op("twirl_channel swap", lambda: er.twirl_channel(self.swap, self.swap, phi),
                      lambda t: checks.channel_twirl(t, phi, self.swap_elements)))
        return out


# ---------------------------------------------------------------------------
# train: circuit build and finite-difference gradients at d <= 8

SAMPLES = 32
EPOCHS = 10
# (task, copies, layer passes, expected circuit layers P)
CASES = (("swap2d", 1, 1, 9), ("swap2d", 1, 2, 18), ("purity", 2, 1, 1),
         ("purity", 3, 1, 4), ("ferro", 1, 1, 1), ("bitflip1d", 1, 1, 1))


def tensor_generators(gens, copies: int, flavor: str) -> list[np.ndarray]:
    """Generators of the k-copy representation, in numpy."""
    out = []
    for k in gens:
        if flavor == "finite":
            out.append(checks.lift(k, copies))
            continue
        eye = np.eye(k.shape[0])
        total = 0
        for slot in range(copies):
            f = [eye] * copies
            f[slot] = k
            total = total + functools.reduce(np.kron, f)
        out.append(total)
    return out


class Train:
    def __init__(self, seed: int, root: Path):
        self.seed = seed

    @staticmethod
    def case(task: str, copies: int, passes: int, layers: int, ds_seed: int) -> Op:
        def run():
            ds = tasks.make_dataset(task, SAMPLES, ds_seed)
            model = tasks.default_task_model(ds, copies=copies, n_layer_passes=passes)
            model = tasks.initialize_parameters(model, ds_seed)
            cfg = er.TrainConfig(learning_rate=0.5, epochs=EPOCHS, seed=ds_seed)
            trained, trace = tasks.train(model, ds, cfg)
            acc = tasks.accuracy(trained, ds)
            dev = tasks.label_invariance_check(trained, ds.rep, ds, n_samples=10,
                                               rng_seed=ds_seed)
            return ds, trained, trace, acc, dev

        def check(out):
            ds, trained, trace, acc, dev = out
            circuit = trained.circuit
            checks.require(len(circuit.layers) == layers,
                           f"{len(circuit.layers)} layers, expected {layers}")
            checks.require(len(trace) == EPOCHS + 1 and np.all(np.isfinite(
                [row[1] for row in trace])), "loss trace is short or not finite")
            gens = [np.array(g) for g in circuit.gens.generators]
            w = checks.circuit(gens, circuit.layers)
            gens_k = tensor_generators(generators(ds.rep), copies, ds.rep.flavor)
            checks.trained_model(w, np.array(trained.measurement.m), trained.readout,
                                 trained.threshold, [s.rho for s in ds.states],
                                 ds.labels(), copies, gens_k, trace[-1][1], acc, dev)
        return Op(f"train {task} k={copies} P={layers}", run, check)

    def ops(self, p: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, p])
        return [self.case(*c, int(rng.integers(2 ** 31))) for c in CASES]


# ---------------------------------------------------------------------------
# cli: the serialize / groups / cli boundary, in process

GOLDEN = (
    ("decompose_su2-tensor2.json", ("decompose", "--rep", "su2-tensor2.json")),
    ("symtest_xxx3_su2-local.json", ("symtest", "--h", "xxx3.json", "--rep", "su2-local.json")),
    ("twirl_swap-adjoint_x1.json", ("twirl", "--rep", "swap-adjoint.json", "--op", "x1.json")),
)
REP_FILES = {"su2x4": ("su2-tensor", "--k", "4"), "perm4": ("perm-qubits", "--n", "4"),
             "regS4": ("left-regular", "--group", "S_4.json")}


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    return code, out.getvalue()


def write_json(path: Path, obj):
    path.write_text(serialize.dumps_report(obj))


class Cli:
    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.presets = root / "presets"
        self.golden = {name: (root / "tests" / "golden" / name).read_text()
                       for name, _ in GOLDEN}
        (root / ".perfbench_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
        w = self.work
        for n in (4, 5):
            write_json(w / f"S_{n}.json", serialize.group_to_spec(er.make_symmetric(n)))
        reps = {"su2x4": er.tensor_power(er.su2_fundamental(), 4),
                "perm4": er.perm_rep_qubits(4),
                "regS4": er.left_regular_rep(er.make_symmetric(4))}
        self.gens = {}
        for name, rep in reps.items():
            write_json(w / f"{name}.json", serialize.rep_to_spec(rep))
            self.gens[name] = generators(rep)
        bad = serialize.rep_to_spec(er.perm_rep_qubits(3))
        del bad["matrices"]
        write_json(w / "a.json", bad)
        (w / "b.json").write_text(json.dumps(
            {"name": "ragged", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}))
        write_json(w / "c.json", {
            "flavor": "finite", "group": {"kind": "cyclic", "n": 2}, "dim": 2,
            "name": "non-unitary", "matrices": [[[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]]})
        x1 = json.loads((self.presets / "x1.json").read_text())
        x1["matrix"][0][0][0] = float("nan")
        (w / "d.json").write_text(json.dumps(x1))
        swap_adjoint = self.presets / "swap-adjoint.json"
        # ROADMAP item 4 cases (a)-(d): each must exit 1 without an exception.
        self.malformed = {
            "a: rep without matrices": ("rep", "verify", "--in", w / "a.json"),
            "b: ragged operator": ("twirl", "--rep", swap_adjoint, "--op", w / "b.json"),
            "c: non-unitary finite image": ("commutant", "--rep", w / "c.json"),
            "d: NaN operator": ("twirl", "--rep", swap_adjoint, "--op", w / "d.json"),
        }

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def op(self, name: str, argv, check) -> Op:
        def verify(out):
            code, text = out
            checks.require(code == 0, f"exit code {code}")
            check(json.loads(text), text)
        return Op(f"cli {name}", lambda: run_cli(argv), verify)

    def ops(self, p: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 4, p])
        w, pre = self.work, self.presets
        out = []
        for golden, argv in GOLDEN:
            argv = [pre / a if a.endswith(".json") else a for a in argv]
            out.append(self.op(golden, argv, lambda r, text, g=golden: checks.require(
                text == self.golden[g], "report differs from the golden file")))
        for n, name in ((4, "S_4"), (5, "unknown")):
            made = w / f"made_S_{n}.json"
            out.append(self.op(f"group make S_{n}", (
                "group", "make", "--kind", "symmetric", "--n", n, "--out", made),
                lambda r, text, n=n, made=made: checks.require(
                    r["order"] == math.factorial(n) and made.exists(),
                    "group not written")))
            out.append(self.op(f"group verify S_{n}", ("group", "verify", "--in", made),
                               lambda r, text: checks.require(r["ok"], "axioms fail")))
            out.append(self.op(f"group identify S_{n}", ("group", "identify", "--in", made),
                               lambda r, text, name=name: checks.require(
                                   r["name"] == name, f"identified as {r['name']}")))
        seed = int(rng.integers(2 ** 31))
        for name, (kind, *extra) in REP_FILES.items():
            extra = [w / e if e.endswith(".json") else e for e in extra]
            dim = self.gens[name][0].shape[0]
            out.append(self.op(f"rep make {name}", (
                "rep", "make", "--kind", kind, *extra, "--out", w / f"made_{name}.json"),
                lambda r, text, dim=dim: checks.require(r["dim"] == dim, "wrong dim")))
        for name in REP_FILES:
            path, gens, dim = w / f"{name}.json", self.gens[name], self.gens[name][0].shape[0]
            known = COMM_DIM[name]
            out.append(self.op(f"rep verify {name}", ("rep", "verify", "--in", path),
                               lambda r, text: checks.require(
                                   r["ok"] and r["residual"] <= checks.RESIDUAL,
                                   "verification failed")))
            out.append(self.op(f"decompose {name}", (
                "decompose", "--rep", path, "--seed", seed),
                lambda r, text, gens=gens, dim=dim, known=known: checks.decomposition(
                    matrix(r["q"]), [tuple(b) for b in r["blocks"]],
                    offsets(r["blocks"]), gens, dim, known)))
            out.append(self.op(f"commutant {name}", ("commutant", "--rep", path),
                               lambda r, text, gens=gens, dim=dim, known=known:
                               checks.commutant([matrix(b) for b in r["basis"]],
                                                gens, dim, known)))
            out.append(self.op(f"equivariant {name}", ("equivariant", "--rep", path),
                               lambda r, text, gens=gens, dim=dim, known=known:
                               checks.commutant([matrix(b) for b in r["generators"]],
                                                gens, dim, known)))

        def task_check(r, text):
            checks.require(0.0 <= r["accuracy"] <= 1.0, "accuracy out of range")
            checks.require(r["invariance_deviation"] <= checks.RESIDUAL
                           and r["residuals"]["circuit_equivariance"] <= checks.RESIDUAL,
                           "trained model is not symmetric")
        out.append(self.op("task run purity k=2", (
            "task", "run", "--name", "purity", "--k", 2, "--epochs", EPOCHS,
            "--samples", SAMPLES, "--seed", seed), task_check))
        for name, argv in self.malformed.items():
            out.append(Op(f"cli malformed {name}", lambda argv=argv: run_cli(argv),
                          lambda res: checks.require(
                              res[0] == 1, f"exit code {res[0]}, expected 1")))
        return out


def matrix(data) -> np.ndarray:
    a = np.array(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def offsets(blocks) -> list[tuple[int, int]]:
    out, pos = [], 0
    for d, m in blocks:
        out.append((pos, pos + d * m))
        pos += d * m
    return out


WORKLOADS = {"certify": Certify, "train": Train, "twirl": Twirl, "cli": Cli}
