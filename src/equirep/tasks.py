"""Desk-scale symmetric classification tasks, training, and symmetry detection.

Each generated dataset carries the representation that leaves its labels
invariant and a label functional computed from symmetry-invariant quantities
of the state itself, so relabeling after any symmetry action reproduces the
labels exactly.  Models evaluate h(rho) = Tr[W rho^(x k) W^dag M] with an
equivariant circuit W and equivariant measurement M, followed by a trainable
affine readout thresholded at 0.5.

Datasets are built as stacks: every state of a task comes from one batched
product, and evaluation scores all states against the effective measurement
W^dag M W in one contraction.  Training is full-batch gradient descent with
exact gradients (commutant generators have arbitrary spectra, so the
two-eigenvalue parameter-shift rule does not apply).  For W = U_1 ... U_P
with U_l = exp(-i theta_l H_l), the prefix products A_l = U_1 ... U_l give

    dW / d theta_l = A_(l-1) (-i H_l) U_l U_(l+1) ... U_P = -i K_l W,
    K_l = A_l H_l A_l^dag,

because U_l commutes with H_l.  With G = sum_n c_n rho_n^(x k) and
S = W G W^dag, the derivative of Tr[S M] is therefore Tr[K_l C] with
C = i[M, S], the same C for every layer.  An epoch takes the P prefix
products in one loop, which also gives W = A_P, and all P derivatives from
one batched conjugation and one contraction.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .equivariant import (
    EquivariantMeasurement,
    QnnCircuit,
    check_equivariance,
    equivariant_generators,
)
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidShellError,
    PrerequisiteFailedError,
    _require_int,
    _require_positive_int,
    _require_seed,
)
from .linalg import DEFAULT_TOL, Tolerance
from .representations import (
    Representation,
    bitflip_rep,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
)

__all__ = [
    "LabeledState", "Dataset", "QmlModel", "TrainConfig",
    "gen_bitflip1d", "gen_purity", "gen_swap2d", "gen_ferro", "TASKS", "make_dataset",
    "model_eval", "default_task_model", "initialize_parameters", "train",
    "accuracy", "label_invariance_check",
    "SymmetryReport", "symmetry_test",
    "EigenspaceReport", "eigenspace_invariance_check",
    "pauli_on", "heisenberg_xxx",
    "ry", "plus_state", "bloch_state", "bloch_vector",
]


# ---------------------------------------------------------------------------
# states and small operators

def ry(theta) -> np.ndarray:
    """Rotation about the y axis, exp(-i theta Y / 2); a stack for an array of angles."""
    c, s = np.cos(np.divide(theta, 2)), np.sin(np.divide(theta, 2))
    return np.moveaxis(np.array([[c, -s], [s, c]], dtype=complex), (0, 1), (-2, -1))


def plus_state() -> np.ndarray:
    v = np.array([1, 1], dtype=complex) / np.sqrt(2)
    return np.outer(v, v.conj())


def bloch_state(r) -> np.ndarray:
    """Single-qubit density matrix (1 + r . sigma) / 2; a stack for an ``(n, 3)`` array."""
    r = np.asarray(r, dtype=float)[..., None, None]
    return (linalg.I2 + r[..., 0, :, :] * linalg.X + r[..., 1, :, :] * linalg.Y
            + r[..., 2, :, :] * linalg.Z) / 2


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    return np.array([np.trace(rho @ p).real for p in (linalg.X, linalg.Y, linalg.Z)])


def pauli_on(p: np.ndarray, site: int, n: int) -> np.ndarray:
    """Single-site operator embedded in an n-qubit register."""
    ops = [linalg.I2] * n
    ops[site] = p
    return linalg.kron_all(*ops)


def heisenberg_xxx(n: int, periodic: bool = True, coupling: float = 1.0) -> np.ndarray:
    """Heisenberg chain sum_j (X_j X_j+1 + Y_j Y_j+1 + Z_j Z_j+1)."""
    _require_int("n", n, 2)
    bonds = [(j, j + 1) for j in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for a, b in bonds:
        for p in (linalg.X, linalg.Y, linalg.Z):
            h += pauli_on(p, a, n) @ pauli_on(p, b, n)
    return coupling * h


# ---------------------------------------------------------------------------
# datasets

@dataclass
class LabeledState:
    rho: np.ndarray
    label: float
    meta: dict = field(default_factory=dict)


@dataclass
class Dataset:
    name: str
    states: list[LabeledState]
    rep: Representation                 # symmetry on the single-copy carrier
    params: dict = field(default_factory=dict)

    def rhos(self) -> np.ndarray:
        """``(N, d, d)`` complex stack of the state matrices."""
        if not self.states:
            raise InvalidParameterError("dataset has no states")
        try:
            return np.array([s.rho for s in self.states], dtype=complex)
        except ValueError as exc:
            raise DimensionMismatchError("dataset states differ in shape") from exc

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.states])


def _label_bitflip1d(rho, params):
    # |sin x| = |<Z>| is preserved by conjugation with X
    return 0.0 if abs(np.trace(rho @ linalg.Z).real) <= np.sin(np.pi / 4) else 1.0


def _label_purity(rho, params):
    return 0.0 if np.trace(rho @ rho).real >= 1 - 1e-9 else 1.0


def _label_swap2d(rho, params):
    zsum = np.kron(linalg.Z, linalg.I2) + np.kron(linalg.I2, linalg.Z)
    s = -np.trace(rho @ zsum).real  # sin x1 + sin x2
    return 0.0 if abs(s) <= params["s0"] else 1.0


def _label_ferro(rho, params):
    ra = bloch_vector(linalg.partial_trace(rho, [2, 2], keep=[0]))
    rb = bloch_vector(linalg.partial_trace(rho, [2, 2], keep=[1]))
    return 0.0 if float(ra @ rb) > 0 else 1.0


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Rows of ``v`` over their norms, bit for bit as ``np.linalg.norm`` of each row."""
    return v / np.sqrt(np.vecdot(v, v))[:, None]


def _balanced(name: str, rhos: np.ndarray, metas, rep: Representation,
              params: dict | None = None) -> Dataset:
    """Dataset whose sample i is the row ``rhos[i]`` with label i % 2."""
    states = [LabeledState(rho, float(i % 2), meta)
              for i, (rho, meta) in enumerate(zip(rhos, metas))]
    return Dataset(name, states, rep, params or {})


def gen_bitflip1d(n_samples: int, seed: int = 0) -> Dataset:
    """Single-qubit states R_Y(x)|+><+|R_Y(x)^dag with mirror-symmetric labels.

    Label 0 draws x from [-pi/4, pi/4], label 1 from the flanking intervals
    up to +-pi/2; x and -x always get equal labels, so conjugation by X
    (which maps the state of x to that of -x) leaves labels invariant.
    Classes are balanced.
    """
    _require_positive_int("n_samples", n_samples)
    _require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    # Each pair of samples draws x_even, then |x_odd| and a uniform sign coin;
    # one call with per-draw bounds keeps that stream order.
    bounds = np.tile([[-np.pi / 4, np.pi / 4, 0.0], [np.pi / 4, np.pi / 2, 1.0]],
                     (1, (n_samples + 1) // 2))
    draws = rng.uniform(*bounds[:, :3 * (n_samples // 2) + n_samples % 2])
    x = np.empty(n_samples)
    x[0::2] = draws[0::3]
    x[1::2] = draws[1::3] * np.where(draws[2::3] < 0.5, 1.0, -1.0)
    u = ry(x)
    return _balanced("bitflip1d", u @ plus_state() @ linalg.dagger(u),
                     [{"x": v} for v in x.tolist()], bitflip_rep(1))


def gen_purity(n_samples: int, seed: int = 0, mixed_shell=(0.2, 0.8)) -> Dataset:
    """Pure states on the Bloch sphere (label 0) vs mixed states in a shell.

    Purity is a spectral property, so any sampled unitary conjugation
    preserves both the label and Tr[rho^2].
    """
    lo, hi = float(mixed_shell[0]), float(mixed_shell[1])
    if not (0 <= lo < hi < 1):
        raise InvalidShellError(f"need 0 <= r_lo < r_hi < 1, got {mixed_shell}")
    _require_positive_int("n_samples", n_samples)
    _require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    # The normal sampler takes a variable number of raw draws, so the draws
    # stay in sample order; the states are built from them in one pass.
    draws = [(rng.standard_normal(3), float(rng.uniform(lo, hi)) if i % 2 else 1.0)
             for i in range(n_samples)]
    r = np.array([m for _, m in draws])
    directions = _unit_rows(np.array([d for d, _ in draws]))
    return _balanced("purity", bloch_state(r[:, None] * directions),
                     [{"r": v} for v in r.tolist()], su2_fundamental(),
                     {"shell": (lo, hi)})


def gen_swap2d(n_samples: int, seed: int = 0, s0: float = 0.7) -> Dataset:
    """Two-qubit product encodings of (x1, x2) with swap-symmetric labels.

    Labels follow the symmetric functional s = sin(x1) + sin(x2): label 0
    iff |s| <= s0.  Points are drawn uniformly from [-pi/2, pi/2]^2 by
    per-class rejection, so classes are balanced and (x1, x2) <-> (x2, x1)
    always agree.
    """
    _require_positive_int("n_samples", n_samples)
    _require_seed("seed", seed)
    if not 0 < s0 < 2:
        raise InvalidParameterError("need 0 < s0 < 2, or one class is never drawn")
    rng = np.random.default_rng(seed)
    # Sample i takes the first pair after sample i-1's whose label is i % 2,
    # so the kept pairs are the starts of the runs of equal labels in the
    # stream, counted from a virtual pair of the label last kept.  Pairs drawn
    # past the last kept one are never read.
    x = np.empty((0, 2))
    while len(x) < n_samples:
        pairs = rng.uniform(-np.pi / 2, np.pi / 2, size=(4 * n_samples + 16, 2))
        labels = (np.abs(np.sin(pairs[:, 0]) + np.sin(pairs[:, 1])) > s0).astype(int)
        starts = np.flatnonzero(np.diff(labels, prepend=1 - len(x) % 2))
        x = np.concatenate([x, pairs[starts[:n_samples - len(x)]]])
    u = linalg.kron_rows(ry(x[:, 0]), ry(x[:, 1]))
    return _balanced("swap2d", u @ np.kron(plus_state(), plus_state()) @ linalg.dagger(u),
                     [{"x": tuple(v)} for v in x.tolist()], swap_rep(), {"s0": s0})


def gen_ferro(n_samples: int, seed: int = 0, r_range=(0.2, 1.0)) -> Dataset:
    """Aligned vs anti-aligned two-qubit product states under U (x) U.

    Label 0: both reduced Bloch vectors equal; label 1: negated.  A common
    unitary rotation acts on both Bloch vectors by the same rotation and
    preserves their dot product, hence the labels.
    """
    lo, hi = float(r_range[0]), float(r_range[1])
    if not (0 < lo <= hi <= 1):
        raise InvalidParameterError("need 0 < r_lo <= r_hi <= 1")
    _require_positive_int("n_samples", n_samples)
    _require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    # draws in sample order, as in gen_purity
    draws = [(rng.standard_normal(3), float(rng.uniform(lo, hi))) for _ in range(n_samples)]
    r = np.array([m for _, m in draws])[:, None] * _unit_rows(np.array([d for d, _ in draws]))
    sign = np.where(np.arange(n_samples) % 2 == 1, -1.0, 1.0)[:, None]
    return _balanced("ferro", linalg.kron_rows(bloch_state(r), bloch_state(sign * r)),
                     [{"r": v} for v in r.tolist()], tensor_power(su2_fundamental(), 2),
                     {"r_range": (lo, hi)})


# task name -> (generator, label functional)
TASKS = {
    "bitflip1d": (gen_bitflip1d, _label_bitflip1d),
    "purity": (gen_purity, _label_purity),
    "swap2d": (gen_swap2d, _label_swap2d),
    "ferro": (gen_ferro, _label_ferro),
}


def make_dataset(name: str, n_samples: int, seed: int = 0, **params) -> Dataset:
    """The ``TASKS`` generator of ``name``; a parameter it does not take is refused."""
    if name not in TASKS:
        raise InvalidParameterError(f"unknown task {name!r}; choose from {tuple(TASKS)}")
    generator = TASKS[name][0]
    unknown = set(params) - set(inspect.signature(generator).parameters)
    if unknown:
        raise InvalidParameterError(f"task {name!r} takes no parameter {min(unknown)!r}")
    return generator(n_samples, seed, **params)


# ---------------------------------------------------------------------------
# models

@dataclass
class QmlModel:
    """k-copy equivariant model with affine readout thresholded at 0.5."""

    copies: int
    circuit: QnnCircuit
    measurement: EquivariantMeasurement
    readout: tuple[float, float] = (1.0, 0.0)   # (scale, offset)
    threshold: float = 0.5


def _lifted_states(model: QmlModel, rhos) -> np.ndarray:
    """``(N, D, D)`` stack of the k-copy inputs rho^(x k), lifted all at once."""
    dim, k = model.circuit.dim, model.copies
    side = round(dim ** (1 / k))
    if side ** k != dim:
        raise DimensionMismatchError(f"states do not lift to the circuit dim {dim} in {k} copies")
    single = linalg.require_operator(rhos, (side, side), stack=True).reshape(-1, side, side)
    return linalg.tensor_powers(single, k)


def _effective_measurement(model: QmlModel) -> np.ndarray:
    """M_eff = W^dag M W, so that h(rho) = Tr[M_eff rho^(x k)]."""
    w = model.circuit.unitary()
    return linalg.dagger(w) @ model.measurement.m @ w


def _outputs(meff: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Raw outputs Tr[meff x_n] of every lifted state, in one contraction.

    A ``(S, D, D)`` stack of measurements gives an ``(S, N)`` array.
    """
    return np.einsum("...ij,nji->...n", meff, lifted).real


def _hit_rate(scores: np.ndarray, labels: np.ndarray, threshold: float) -> float:
    """Share of states whose score, thresholded, gives their label."""
    return float(np.mean((scores > threshold).astype(float) == labels))


def model_eval(model: QmlModel, rho: np.ndarray) -> float:
    """Raw model output Tr[W rho^(x k) W^dag M]; real for Hermitian M."""
    return float(_outputs(_effective_measurement(model), _lifted_states(model, [rho]))[0])


def default_task_model(dataset: Dataset, copies: int = 1, n_layer_passes: int = 1,
                       tol: Tolerance = DEFAULT_TOL) -> QmlModel:
    """Equivariant model for a task: commutant circuit + a task-adapted M.

    The measurement picks the informative invariant for each task (e.g. the
    antisymmetric projector for purity at k = 2); the circuit uses every
    traceless commutant generator, repeated ``n_layer_passes`` times.
    """
    _require_int("n_layer_passes", n_layer_passes, 0)
    rep_k = tensor_power(dataset.rep, copies)
    gens = equivariant_generators(rep_k, tol)
    circuit = QnnCircuit(gens, [(i, 0.0) for i in range(1, gens.dim)] * n_layer_passes)

    name = dataset.name
    dim = rep_k.dim
    if name == "purity" and copies >= 2:
        m = (np.eye(4, dtype=complex) - swap_matrix()) / 2  # antisymmetric projector
        if copies > 2:
            m = gens.project(np.kron(m, np.eye(dim // 4)))
    elif name == "bitflip1d" and copies == 1:
        m = linalg.X.copy()
    elif name == "swap2d" and copies == 1:
        m = np.kron(linalg.Z, linalg.I2) + np.kron(linalg.I2, linalg.Z)
    elif name == "ferro" and copies == 1:
        m = swap_matrix()
    else:
        # fall back to a projected random Hermitian probe
        rng = np.random.default_rng(11)
        m = gens.project(linalg.random_hermitian(dim, rng))
    measurement = EquivariantMeasurement(m)
    return QmlModel(copies, circuit, measurement)


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    learning_rate: float = 0.2
    epochs: int = 200
    seed: int = 0
    loss: str = "mse"

    def __post_init__(self):
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise InvalidParameterError("learning_rate must be positive and finite")
        _require_int("epochs", self.epochs, 0)
        if self.loss not in ("mse", "bce"):
            raise InvalidParameterError("loss must be 'mse' or 'bce'")


def initialize_parameters(model: QmlModel, seed: int) -> QmlModel:
    """Fresh circuit angles uniform in [-pi, pi] and identity readout."""
    _require_seed("seed", seed)
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(-np.pi, np.pi, size=len(model.circuit.layers))
    return QmlModel(model.copies, model.circuit.with_parameters(thetas),
                    model.measurement, (1.0, 0.0), model.threshold)


# bce clips scores to [_BCE_CLIP, 1 - _BCE_CLIP] before taking logs
_BCE_CLIP = 1e-9


def _loss_value(scores, labels, kind):
    if kind == "mse":
        return float(np.mean((scores - labels) ** 2))
    p = np.clip(scores, _BCE_CLIP, 1 - _BCE_CLIP)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))


def _loss_slopes(scores, labels, kind) -> np.ndarray:
    """d loss / d score_n; zero where the bce clip holds a score fixed."""
    n = len(scores)
    if kind == "mse":
        return 2 * (scores - labels) / n
    inside = (scores > _BCE_CLIP) & (scores < 1 - _BCE_CLIP)
    p = np.clip(scores, _BCE_CLIP, 1 - _BCE_CLIP)
    return np.where(inside, ((1 - labels) / (1 - p) - labels / p) / n, 0.0)


def _adjoint_gradient(prefix, hs, m, g) -> np.ndarray:
    """d Tr[W G W^dag M] / d theta_l for every layer l, from prefix products.

    ``prefix`` stacks A_l = U_1 ... U_l for l = 0..P, so A_0 = 1 and W = A_P,
    and ``hs`` stacks the layer generators H_l.  Since dU_l / d theta_l =
    -i U_l H_l, dW / d theta_l = -i K_l W with K_l = A_l H_l A_l^dag, and the
    derivative is Tr[K_l C] with C = i[M, S], S = W G W^dag.  For Hermitian
    K_l, M and S that is -2 Im Tr[K_l M S]: one batched conjugation and one
    contraction for all layers.
    """
    w, a = prefix[-1], prefix[1:]
    ms = m @ w @ g @ linalg.dagger(w)
    return -2 * np.einsum("lij,ji->l", a @ hs @ linalg.dagger(a), ms).imag


def train(model: QmlModel, dataset: Dataset, cfg: TrainConfig):
    """Full-batch gradient descent with exact adjoint-mode gradients.

    Returns (trained model, trace) where trace rows are
    (epoch, loss, train_accuracy); epoch 0 is the pre-update state.  Each
    row comes from the same forward pass that the next update differentiates,
    so the last row scores the returned model.  The loss trace is not
    guaranteed monotone.  Zero epochs return the model unchanged.
    """
    lifted = _lifted_states(model, dataset.rhos())
    labels = dataset.labels()
    gens = model.circuit.gens
    idx = np.array([i for i, _ in model.circuit.layers], dtype=int)
    if np.any((idx < 0) | (idx >= gens.dim)):
        raise IndexError(f"generator index out of range 0..{gens.dim - 1}")
    # H_l = V_l diag(lam_l) V_l^dag, gathered once: an epoch only rescales phases
    lam, v = (a[idx] for a in gens.eig)
    vh = linalg.dagger(v)
    hs = gens.generators[idx]
    m = model.measurement.m
    n_theta = len(idx)
    # prefix[l] = U_1 ... U_l, from prefix[0] = 1, so prefix[-1] = W
    prefix = np.empty((n_theta + 1, gens.rep.dim, gens.rep.dim), dtype=complex)
    prefix[0] = np.eye(gens.rep.dim)
    params = np.concatenate([model.circuit.parameters, np.array(model.readout)])

    trace = []
    for epoch in range(cfg.epochs + 1):
        us = (v * np.exp(-1j * params[:n_theta, None] * lam)[:, None, :]) @ vh
        for l in range(n_theta):
            np.matmul(prefix[l], us[l], out=prefix[l + 1])
        w = prefix[-1]
        meff = linalg.dagger(w) @ m @ w
        raws = _outputs(meff, lifted)
        a, b = params[-2], params[-1]
        scores = a * raws + b
        trace.append((epoch, _loss_value(scores, labels, cfg.loss),
                      _hit_rate(scores, labels, model.threshold)))
        if epoch == cfg.epochs:
            break
        # The circuit sees the slopes through G = sum_n a dloss/dscore_n
        # rho_n^(x k); the readout has dL/da = sum_n slope_n raw_n and
        # dL/db = sum_n slope_n in closed form.
        slopes = _loss_slopes(scores, labels, cfg.loss)
        grad = _adjoint_gradient(prefix, hs, m, np.einsum("n,nij->ij", a * slopes, lifted))
        params = params - cfg.learning_rate * np.concatenate(
            [grad, [slopes @ raws, slopes.sum()]])

    trained = QmlModel(model.copies,
                       model.circuit.with_parameters(params[:n_theta]),
                       model.measurement,
                       (float(params[-2]), float(params[-1])),
                       model.threshold)
    return trained, trace


def accuracy(model: QmlModel, dataset: Dataset) -> float:
    a, b = model.readout
    scores = a * _outputs(_effective_measurement(model),
                          _lifted_states(model, dataset.rhos())) + b
    return _hit_rate(scores, dataset.labels(), model.threshold)


def label_invariance_check(model_or_fn, rep: Representation, dataset: Dataset,
                           n_samples: int = 10, rng_seed: int = 0) -> float:
    """Max |h(rho) - h(g rho g^dag)| over the dataset and sampled symmetries.

    Finite groups of order <= 16 are checked on every element, anything
    else on ``n_samples`` sampled elements.  ``rep`` acts on the single-copy
    carrier; models lift it to their copy count internally through the
    tensor structure of the input.
    """
    _require_positive_int("n_samples", n_samples)
    _require_seed("rng_seed", rng_seed)
    if rep.flavor == "finite" and rep.group.order <= 16:
        samples = rep.representatives()
    else:
        samples = rep.sample_elements(rng_seed, n_samples)
    rhos = dataset.rhos()
    if rhos.shape[1:] != (rep.dim, rep.dim):
        raise DimensionMismatchError("representation does not act on the states")
    if isinstance(model_or_fn, QmlModel):
        # Tr[M_eff (u rho u^dag)^(x k)] = Tr[U^dag M_eff U rho^(x k)] with U = u^(x k),
        # so each sampled u conjugates M_eff once instead of moving every state.
        # M_eff and all its conjugates are scored by one contraction, so a u
        # that fixes M_eff scores exactly as the base row does.
        uk = _lifted_states(model_or_fn, samples)
        meff = _effective_measurement(model_or_fn)
        meffs = np.concatenate([meff[None], linalg.dagger(uk) @ meff @ uk])
        outs = _outputs(meffs, _lifted_states(model_or_fn, rhos))
        return float(np.max(np.abs(outs[1:] - outs[0]), initial=0.0))
    fn = model_or_fn
    dev = 0.0
    for rho in rhos:
        base = fn(rho)
        for u in samples:
            dev = max(dev, abs(fn(u @ rho @ linalg.dagger(u)) - base))
    return dev


# ---------------------------------------------------------------------------
# symmetry detection

@dataclass
class SymmetryReport:
    max_residual: float
    commutes: bool


def symmetry_test(h: np.ndarray, rep: Representation,
                  tol: Tolerance = DEFAULT_TOL) -> SymmetryReport:
    """Does the Hermitian operator commute with the whole representation?

    Checked on generators (finite) or algebra images (lie), which suffices by
    the homomorphism property / connectedness.
    """
    res = check_equivariance(h, rep)
    scale = max(linalg.frob(h), 1.0)
    return SymmetryReport(res, res <= max(tol.threshold(scale), 1e-10 * scale))


@dataclass
class EigenspaceReport:
    eigenvalues: list[float]
    projector_residual: float
    invariant: bool
    eigenvectors_all_fixed: bool
    fixed_fraction: float


def eigenspace_invariance_check(h: np.ndarray, rep: Representation,
                                tol: Tolerance = DEFAULT_TOL) -> EigenspaceReport:
    """Verify that the symmetry preserves the eigenspaces of a symmetric H.

    Checked on the generator images K alone, as ``symmetry_test`` is: what
    every K keeps, their products (finite) and exponentials (lie) keep too.
    Each eigenprojector P must commute with every K, which for a unitary K
    is R(g) P R(g)^dag = P.  Individual eigenvectors need not be fixed
    (degenerate eigenspaces may be permuted internally); an eigenvector v
    counts as fixed when |(||Kv|| - |v^dag K v|)| < 1e-8 for every K, so Kv
    is a multiple of v, and the report says whether they all are.
    """
    report = symmetry_test(h, rep, tol)
    if not report.commutes:
        raise PrerequisiteFailedError(
            f"operator does not commute with the representation "
            f"(residual {report.max_residual:.3e})")
    w, v = linalg.herm_eig(h, Tolerance(1e-8, 1e-8))
    spread = max(w[-1] - w[0], 1.0)
    # a new eigenspace starts wherever consecutive eigenvalues part by more than the cutoff
    starts = np.flatnonzero(np.diff(w) > 1e-8 * spread) + 1
    groups = np.split(np.arange(len(w)), starts)
    projectors = np.array([v[:, g] @ linalg.dagger(v[:, g]) for g in groups])
    res = check_equivariance(projectors, rep)
    kv = rep.generator_images @ v   # column i of kv[a] is K_a v_i
    slack = np.abs(np.linalg.norm(kv, axis=1) - np.abs(np.sum(v.conj() * kv, axis=1)))
    fixed = int(np.count_nonzero(np.all(slack < 1e-8, axis=0)))
    return EigenspaceReport(
        eigenvalues=[float(np.mean(w[g])) for g in groups],
        projector_residual=res,
        invariant=bool(res <= 1e-8 * max(1.0, spread)),
        eigenvectors_all_fixed=fixed == len(w),
        fixed_fraction=fixed / len(w),
    )
