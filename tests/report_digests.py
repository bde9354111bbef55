"""Print a digest of every report a fixed corpus of CLI commands writes.

Usage::

    python tests/report_digests.py SRC_DIR > digests.txt

``SRC_DIR`` is the ``src`` directory of any checkout of equirep.  Every
command of the corpus runs in process, in one temporary directory, with
argv paths relative to it.  For each command one line is printed::

    <sha256 of stdout, NUL, stderr>  <exit code>  <argv>

followed by one line per file the command created or changed there::

    <sha256 of the file>  file  <relative path>

Run it on two checkouts and ``diff`` the outputs: equal lines mean equal
exit codes, reports, messages and written files.  The inputs are the
``presets/`` next to this script plus operators and Haar-conjugated
representations written here by numpy and ``json`` alone, so both
checkouts read the same bytes.  This file is a tool, not a test module;
pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import tempfile

import numpy as np

PRESETS = pathlib.Path(__file__).resolve().parent.parent / "presets"

# name -> rep make arguments; perm5 (order 120) and regZ96 lie above the
# order up to which a decomposition is certified on every element.
MADE = {
    "trivial3": ("trivial", "--dim", "3", "--n", "3"),
    "perm3": ("perm-qubits", "--n", "3"),
    "perm4": ("perm-qubits", "--n", "4"),
    "perm5": ("perm-qubits", "--n", "5"),
    "bitflip3": ("bitflip", "--n", "3"),
    "swap": ("swap",),
    "dihedral-s3": ("dihedral-s3",),
    "su2": ("su2-fundamental",),
    "su2x3": ("su2-tensor", "--k", "3"),
    "su2x4": ("su2-tensor", "--k", "4"),
    "regZ6": ("left-regular", "--n", "6"),
    "regZ96": ("left-regular", "--n", "96"),
    "regS4": ("left-regular", "--group", "S_4.json"),
    "translation4": ("translation", "--n", "4"),
}
CONJUGATED = ("perm3", "perm5", "su2x3", "regZ6", "dihedral-s3")
GROUPS = (("cyclic", 5), ("cyclic", 12), ("symmetric", 3), ("symmetric", 4),
          ("dihedral", 4), ("dihedral", 6))


def _pairs(a: np.ndarray):
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(spec: dict, u: np.ndarray) -> dict:
    """A rep spec with every image M replaced by u M u^dag, written by json alone."""
    key = "matrices" if spec["flavor"] == "finite" else "generator_images"
    out = dict(spec, name=spec["name"] + "~haar")
    mats = np.array(spec[key], dtype=float)
    mats = mats[..., 0] + 1j * mats[..., 1]
    out[key] = _pairs(u @ mats @ u.conj().T)
    return out


def _operator(d: int, rng: np.random.Generator) -> dict:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return {"name": f"op{d}", "matrix": _pairs(a)}


class Corpus:
    """Runs commands in one work directory and prints their digests."""

    def __init__(self, cli, work: pathlib.Path):
        self.cli, self.work = cli, work
        self.count = 0

    def _files(self) -> dict[str, str]:
        return {str(p.relative_to(self.work)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.work.rglob("*")) if p.is_file()}

    def run(self, *argv):
        argv = [str(a) for a in argv]
        before = self._files()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.run(argv)
            except BaseException as exc:  # a traceback is a result too
                code = f"raised:{type(exc).__name__}"
        digest = hashlib.sha256(
            (out.getvalue() + "\0" + err.getvalue()).encode()).hexdigest()
        print(f"{digest}  {code}  {' '.join(argv)}")
        for name, h in self._files().items():
            if before.get(name) != h:
                print(f"{h}  file  {name}")
        self.count += 1

    def write(self, name: str, obj):
        (self.work / name).write_text(json.dumps(obj))


def corpus(c: Corpus):
    w = c.work
    for p in PRESETS.glob("*.json"):
        shutil.copy(p, w / p.name)

    # groups
    for kind, n in GROUPS:
        c.run("group", "make", "--kind", kind, "--n", n, "--out", f"{kind}{n}.json")
        c.run("group", "verify", "--in", f"{kind}{n}.json")
        c.run("group", "identify", "--in", f"{kind}{n}.json")
    c.run("group", "make", "--kind", "symmetric", "--n", 4, "--out", "S_4.json")
    c.run("group", "make", "--kind", "dihedral", "--n", 5)

    # every rep kind, then the Haar-conjugated copies
    for name, argv in MADE.items():
        c.run("rep", "make", "--kind", *argv, "--out", f"{name}.json")
    rng = np.random.default_rng(2024)
    for name in CONJUGATED:
        spec = json.loads((w / f"{name}.json").read_text())
        c.write(f"{name}~haar.json", _conjugate(spec, _haar(spec["dim"], rng)))

    reps = [*MADE, *(n + "~haar" for n in CONJUGATED)]
    dims = {n: json.loads((w / f"{n}.json").read_text())["dim"] for n in reps}
    for d in sorted(set(dims.values())):
        c.write(f"op{d}.json", _operator(d, rng))
    for name in reps:
        rep = f"{name}.json"
        c.run("rep", "verify", "--in", rep)
        for seed in (0, 1, 5):
            c.run("decompose", "--rep", rep, "--seed", seed)
        c.run("commutant", "--rep", rep)
        c.run("equivariant", "--rep", rep)
        for mode in ((), ("--mode", "average"), ("--mode", "projection")):
            c.run("twirl", "--rep", rep, "--op", f"op{dims[name]}.json", *mode)
    c.run("decompose", "--rep", "su2x3.json", "--out", "dec.json", "--verbose")
    c.run("equivariant", "--rep", "swap.json", "--preset", "paper-swap-six")
    c.run("equivariant", "--rep", "swap.json", "--preset", "paper-swap-six",
          "--out", "eq.json")

    # the presets
    for p in sorted(PRESETS.glob("*.json")):
        if "matrix" not in json.loads(p.read_text()):
            c.run("decompose", "--rep", p.name)
            c.run("commutant", "--rep", p.name)
    c.run("symtest", "--h", "xxx3.json", "--rep", "su2-local.json")
    c.run("symtest", "--h", "x1.json", "--rep", "swap-adjoint.json", "--out", "sym.json")
    c.run("twirl", "--rep", "swap-adjoint.json", "--op", "x1.json")
    c.run("twirl", "--rep", "su2-tensor2.json", "--op", "x1.json", "--mode", "projection",
          "--tol-abs", "1e-12", "--tol-rel", "1e-11", "--seed", 3)

    # tasks
    for task in ("bitflip1d", "purity", "swap2d", "ferro"):
        c.run("task", "run", "--name", task, "--epochs", 3, "--samples", 12,
              "--out", f"{task}.csv", "--dump-data", f"{task}-data.json")
    c.run("task", "run", "--name", "purity", "--k", 2, "--epochs", 2, "--samples", 8,
          "--seed", 7, "--verbose")

    # boundary errors
    bad = json.loads((w / "perm3.json").read_text())
    del bad["matrices"]
    c.write("no-matrices.json", bad)
    c.write("ragged.json", {"name": "ragged", "matrix": [[[1, 0], [0, 0]], [[0, 0]]]})
    c.write("non-unitary.json", {
        "flavor": "finite", "group": {"kind": "cyclic", "n": 2}, "dim": 2,
        "name": "non-unitary", "matrices": [[[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]]})
    (w / "nan.json").write_text((w / "x1.json").read_text().replace("1,", "NaN,", 1))
    (w / "broken.json").write_text("{")
    c.write("bad-table.json", {"kind": "table", "mul": [[0, 1], [0, 1]]})
    c.write("bad-kind.json", {"kind": "nosuchgroup", "n": 3})
    for argv in (
            ("rep", "verify", "--in", "no-matrices.json"),
            ("twirl", "--rep", "swap-adjoint.json", "--op", "ragged.json"),
            ("commutant", "--rep", "non-unitary.json"),
            ("twirl", "--rep", "swap-adjoint.json", "--op", "nan.json"),
            ("twirl", "--rep", "swap-adjoint.json", "--op", "op8.json"),
            ("decompose", "--rep", "no-such-file.json"),
            ("decompose", "--rep", "broken.json"),
            ("decompose", "--rep", "x1.json"),
            ("decompose", "--rep", "swap.json", "--seed", "-1"),
            ("decompose", "--rep", "swap.json", "--tol-abs", "nan"),
            ("decompose",),
            ("group", "make", "--kind", "nosuchgroup"),
            ("group", "make", "--kind", "dihedral", "--n", 1),
            ("group", "make"),
            ("group", "verify"),
            ("group", "verify", "--in", "bad-table.json"),
            ("group", "identify", "--in", "bad-kind.json"),
            ("group", "frobnicate"),
            ("rep", "make"),
            ("rep", "make", "--kind", "nosuchrep"),
            ("rep", "make", "--kind", "trivial", "--dim", 0),
            ("rep", "make", "--kind", "perm-qubits", "--n", 0),
            ("rep", "make", "--kind", "left-regular", "--group", "missing.json"),
            ("rep", "verify"),
            ("equivariant", "--rep", "swap.json", "--preset", "nosuchpreset"),
            ("task", "run", "--name", "nosuchtask"),
            ("task", "stop", "--name", "purity"),
            ("symtest", "--h", "x1.json", "--rep", "su2x3.json"),
            ("nosuchcommand",),
            ()):
        c.run(*argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(pathlib.Path(argv[0]).resolve()))
    from equirep import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            c = Corpus(cli, pathlib.Path(tmp))
            corpus(c)
        finally:
            os.chdir(home)
    print(f"{c.count} commands", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
