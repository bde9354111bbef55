"""Training and evaluation build each circuit once, from cached generator
eigenpairs, and differentiate it from its prefix products.  The loops below
are the implementations this replaced and serve as the references: one
``exp_unitary`` per layer, one trace per state, the per-layer backward sweep,
and central finite differences of the loss in every parameter."""

import numpy as np
import pytest

from equirep import linalg
from equirep.equivariant import (
    EquivariantMeasurement,
    QnnCircuit,
    build_qnn,
    equivariant_generators,
)
from equirep.linalg import dagger, exp_unitary, frob, random_hermitian
from equirep.representations import (
    perm_rep_qubits,
    su2_fundamental,
    swap_rep,
    tensor_power,
)
from equirep.tasks import (
    QmlModel,
    TrainConfig,
    accuracy,
    default_task_model,
    initialize_parameters,
    label_invariance_check,
    make_dataset,
    model_eval,
    train,
)
from equirep.tasks import _loss_slopes

AGREE = 1e-12


def product_of_exponentials(gens, layout):
    w = np.eye(gens.rep.dim, dtype=complex)
    for idx, theta in layout:
        w = w @ exp_unitary(gens.generators[idx], theta)
    return w


def kron_lift(rho, copies):
    out = rho
    for _ in range(copies - 1):
        out = np.kron(out, rho)
    return out


def raw_loop(model, rhos):
    """Tr[W rho^(x k) W^dag M], one state at a time."""
    gens, layers = model.circuit.gens, model.circuit.layers
    w = product_of_exponentials(gens, layers)
    return np.array([np.trace(w @ kron_lift(rho, model.copies) @ dagger(w)
                              @ model.measurement.m).real for rho in rhos])


def loss_loop(model, ds, kind):
    a, b = model.readout
    scores = a * raw_loop(model, ds.rhos()) + b
    labels = ds.labels()
    if kind == "mse":
        return float(np.mean((scores - labels) ** 2))
    p = np.clip(scores, 1e-9, 1 - 1e-9)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))


def with_params(model, params):
    n = len(model.circuit.layers)
    return QmlModel(model.copies, model.circuit.with_parameters(params[:n]),
                    model.measurement, (float(params[n]), float(params[n + 1])),
                    model.threshold)


def params_of(model):
    return np.concatenate([model.circuit.parameters, model.readout])


def fd_loss_gradient(model, ds, kind, h):
    p = params_of(model)
    grad = np.zeros_like(p)
    for i in range(p.size):
        bump = np.zeros_like(p)
        bump[i] = h
        grad[i] = (loss_loop(with_params(model, p + bump), ds, kind)
                   - loss_loop(with_params(model, p - bump), ds, kind)) / (2 * h)
    return grad


def fd_train(model, ds, cfg, h=1e-4):
    """The finite-difference trainer that the adjoint sweep replaced."""
    trace = []
    for epoch in range(cfg.epochs + 1):
        if epoch:
            grad = fd_loss_gradient(model, ds, cfg.loss, h)
            model = with_params(model, params_of(model) - cfg.learning_rate * grad)
        a, b = model.readout
        preds = (a * raw_loop(model, ds.rhos()) + b > model.threshold).astype(float)
        trace.append((epoch, loss_loop(model, ds, cfg.loss),
                      float(np.mean(preds == ds.labels()))))
    return model, trace


# (task, copies, layer passes, circuit layers P)
CASES = [("swap2d", 1, 1, 9), ("swap2d", 1, 2, 18), ("purity", 3, 1, 4), ("ferro", 1, 1, 1)]


def task_model(task, copies, passes, seed, readout):
    ds = make_dataset(task, 12, seed)
    model = initialize_parameters(
        default_task_model(ds, copies=copies, n_layer_passes=passes), seed)
    return ds, QmlModel(model.copies, model.circuit, model.measurement, readout)


# -- (a) the adjoint gradient against finite differences of the loss ----------

@pytest.mark.parametrize("kind,scale,offset", [("mse", 1.0, 0.0), ("bce", 0.1, 0.5),
                                               ("bce", 1.0, 5.0)],
                         ids=["mse", "bce", "bce-clipped"])
@pytest.mark.parametrize("task,copies,passes,layers", CASES)
def test_adjoint_gradient_matches_finite_differences(task, copies, passes, layers,
                                                     kind, scale, offset):
    rng = np.random.default_rng(layers + 7 * copies)
    for _ in range(2):
        seed = int(rng.integers(2 ** 31))
        readout = (float(rng.uniform(0.5, 1.5)) * scale,
                   float(rng.uniform(-0.5, 0.5)) if kind == "mse" else offset)
        ds, model = task_model(task, copies, passes, seed, readout)
        assert len(model.circuit.layers) == layers
        if kind == "bce":
            # |raw| <= 2 on these tasks.  Offset 0.5 keeps every score inside
            # the clip, far from its edges, where the loss has a kink; offset 5
            # puts every score past the clip, where the loss is flat.
            scores = readout[0] * raw_loop(model, ds.rhos()) + readout[1]
            if offset < 1:
                assert np.all((scores > 0.15) & (scores < 0.85))
            else:
                assert np.all(scores > 1.5)
        # one unit step of gradient descent moves the parameters by -grad
        stepped, _ = train(model, ds, TrainConfig(learning_rate=1.0, epochs=1, loss=kind))
        adjoint = params_of(model) - params_of(stepped)
        fd = fd_loss_gradient(model, ds, kind, h=1e-5)
        assert np.all(np.abs(adjoint - fd) <= 1e-7 * np.maximum(1.0, np.abs(fd)))


def test_adjoint_trainer_follows_the_finite_difference_trainer():
    for task, copies, passes, _ in CASES[:3]:
        ds, model = task_model(task, copies, passes, 5, (1.0, 0.0))
        cfg = TrainConfig(learning_rate=0.3, epochs=3)
        fast, fast_trace = train(model, ds, cfg)
        slow, slow_trace = fd_train(model, ds, cfg)
        assert np.max(np.abs(params_of(fast) - params_of(slow))) < 1e-6
        assert [row[0] for row in fast_trace] == [row[0] for row in slow_trace]
        assert max(abs(f[1] - s[1]) for f, s in zip(fast_trace, slow_trace)) < 1e-6


def sweep_gradient(model, ds, kind):
    """The circuit gradient by the per-layer backward sweep that the
    prefix-product form replaced: with sigma_l = (U_l..U_P) G (U_l..U_P)^dag
    and M_l = (U_1..U_l)^dag M (U_1..U_l), layer l gets Tr[sigma_(l+1)
    i[H_l, M_l]], peeling one layer at a time from sigma_(P+1) = G and
    M_P = W^dag M W."""
    gens, layers = model.circuit.gens, model.circuit.layers
    us = gens.layer_unitaries(layers)
    hs = gens.generators[[i for i, _ in layers]]
    w = build_qnn(gens, layers)
    meff = dagger(w) @ model.measurement.m @ w
    lifted = np.array([kron_lift(rho, model.copies) for rho in ds.rhos()])
    raws = np.einsum("ij,nji->n", meff, lifted).real
    a, b = model.readout
    sigma = np.tensordot(a * _loss_slopes(a * raws + b, ds.labels(), kind), lifted, 1)
    m = meff
    grad = np.zeros(len(us))
    for l in range(len(us) - 1, -1, -1):
        h, u, ud = hs[l], us[l], dagger(us[l])
        grad[l] = np.einsum("ij,ji->", sigma, 1j * (h @ m - m @ h)).real
        sigma, m = u @ sigma @ ud, u @ m @ ud
    return grad


def trainer_gradient(model, ds, kind):
    """The circuit gradient that ``train`` steps along, read off one unit step."""
    stepped, _ = train(model, ds, TrainConfig(learning_rate=1.0, epochs=1, loss=kind))
    n = len(model.circuit.layers)
    return model.circuit.parameters - stepped.circuit.parameters[:n]


def assert_matches_sweep(model, ds, kind):
    want = sweep_gradient(model, ds, kind)
    got = trainer_gradient(model, ds, kind)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind,offset", [("mse", None), ("bce", 0.5), ("bce", 5.0)],
                         ids=["mse", "bce", "bce-clipped"])
@pytest.mark.parametrize("task,copies,passes,layers", CASES)
def test_prefix_gradient_matches_the_backward_sweep(task, copies, passes, layers,
                                                    kind, offset):
    rng = np.random.default_rng(3 * layers + copies)
    for _ in range(3):
        seed = int(rng.integers(2 ** 31))
        scale = float(rng.uniform(0.5, 1.5)) * (0.1 if offset == 0.5 else 1.0)
        readout = (scale, float(rng.uniform(-0.5, 0.5)) if offset is None else offset)
        ds, model = task_model(task, copies, passes, seed, readout)
        assert_matches_sweep(model, ds, kind)


@pytest.mark.parametrize("kind", ["mse", "bce"])
def test_prefix_gradient_matches_the_sweep_on_probe_models(kind):
    # the last probe measures a random Hermitian operator, not an equivariant one
    for ds, model in probe_models():
        assert_matches_sweep(model, ds, kind)


# -- (b) circuits from cached eigenpairs ----------------------------------------

@pytest.mark.parametrize("rep", [swap_rep(), tensor_power(su2_fundamental(), 2),
                                 tensor_power(su2_fundamental(), 3), perm_rep_qubits(3),
                                 tensor_power(swap_rep(), 2)],
                         ids=["swap", "su2x2", "su2x3", "perm3", "swapx2"])
def test_build_qnn_matches_product_of_exponentials(rep):
    rng = np.random.default_rng(rep.dim)
    gens = equivariant_generators(rep)
    for n_layers in (0, 1, 3, 12):
        layout = [(int(rng.integers(gens.dim)), float(rng.uniform(-np.pi, np.pi)))
                  for _ in range(n_layers)]
        assert frob(build_qnn(gens, layout) - product_of_exponentials(gens, layout)) <= 1e-13


def test_generators_are_diagonalised_once(monkeypatch):
    gens = equivariant_generators(perm_rep_qubits(3))
    layout = [(i, 0.1 * i) for i in range(gens.dim)]
    build_qnn(gens, layout)
    calls = []
    for name in ("herm_eig", "exp_unitary"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda *a, _real=real, _name=name, **k: calls.append(_name) or _real(*a, **k))
    for _ in range(3):
        build_qnn(gens, layout)
    assert calls == []


# -- (c) batched evaluation against per-state loops ------------------------------

def probe_models():
    """Task models at random angles, plus one with a measurement that is not
    equivariant, so that label invariance has a deviation to agree on."""
    rng = np.random.default_rng(41)
    out = []
    for task, k in (("swap2d", 1), ("purity", 2), ("purity", 3), ("ferro", 1), ("bitflip1d", 1)):
        ds = make_dataset(task, 16, 41)
        model = initialize_parameters(default_task_model(ds, copies=k), 41)
        out.append((ds, QmlModel(k, model.circuit, model.measurement, (2.0, 0.3))))
    ds = make_dataset("swap2d", 16, 42)
    gens = equivariant_generators(ds.rep)
    circuit = QnnCircuit(gens, [(i, float(rng.uniform(-2, 2))) for i in range(1, gens.dim)])
    probe = EquivariantMeasurement(random_hermitian(4, rng))
    out.append((ds, QmlModel(1, circuit, probe, (1.0, 0.2))))
    return out


def test_batched_evaluation_matches_per_state_loops():
    for ds, model in probe_models():
        raws = raw_loop(model, ds.rhos())
        assert np.max(np.abs([model_eval(model, rho) for rho in ds.rhos()] - raws)) <= AGREE
        a, b = model.readout
        preds = np.array([1.0 if a * r + b > model.threshold else 0.0 for r in raws])
        assert accuracy(model, ds) == float(np.mean(preds == ds.labels()))


def test_batched_label_invariance_matches_per_state_loop():
    deviations = []
    for ds, model in probe_models():
        samples = ds.rep.sample_elements(3, 6)
        if ds.rep.flavor == "finite" and ds.rep.group.order <= 16:
            samples = ds.rep.representatives()
        base = raw_loop(model, ds.rhos())
        moved = [raw_loop(model, [u @ rho @ dagger(u) for rho in ds.rhos()]) for u in samples]
        want = max(float(np.max(np.abs(m - base))) for m in moved)
        got = label_invariance_check(model, ds.rep, ds, n_samples=6, rng_seed=3)
        assert abs(got - want) <= AGREE
        deviations.append(got)
    assert deviations[-1] > 0.01      # the non-equivariant probe


def test_lifted_input_matches_kron_loop():
    rng = np.random.default_rng(5)
    for copies in (1, 2, 3):
        ds = make_dataset("purity", 4, 5)
        model = default_task_model(ds, copies=copies)
        for rho in list(ds.rhos()) + [random_hermitian(2, rng)]:
            assert frob(model.lifted_input(rho) - kron_lift(rho, copies)) <= 1e-14


# -- the trace ----------------------------------------------------------------

@pytest.mark.parametrize("epochs", [0, 7])
@pytest.mark.parametrize("task,copies", [("swap2d", 1), ("purity", 2), ("ferro", 1),
                                         ("bitflip1d", 1)])
def test_last_trace_row_scores_the_returned_model(task, copies, epochs):
    ds = make_dataset(task, 20, 8)
    model = initialize_parameters(default_task_model(ds, copies=copies), 8)
    cfg = TrainConfig(learning_rate=0.4, epochs=epochs, seed=8)
    trained, trace = train(model, ds, cfg)
    a, b = trained.readout
    fresh = a * np.array([model_eval(trained, rho) for rho in ds.rhos()]) + b
    assert len(trace) == epochs + 1
    assert abs(trace[-1][1] - float(np.mean((fresh - ds.labels()) ** 2))) <= AGREE
    assert trace[-1][2] == accuracy(trained, ds)
    again, trace_again = train(model, ds, cfg)
    assert trace_again == trace
    assert np.array_equal(again.circuit.parameters, trained.circuit.parameters)


# the train benchmark's cases: 32 samples and 10 epochs each
@pytest.mark.parametrize("task,copies,passes", [("swap2d", 1, 1), ("swap2d", 1, 2),
                                                ("purity", 2, 1), ("purity", 3, 1),
                                                ("ferro", 1, 1), ("bitflip1d", 1, 1)])
@pytest.mark.parametrize("seed", [0, 5])
def test_last_trace_accuracy_is_the_accuracy_of_the_returned_model(task, copies, passes, seed):
    ds = make_dataset(task, 32, seed)
    model = initialize_parameters(
        default_task_model(ds, copies=copies, n_layer_passes=passes), seed)
    trained, trace = train(model, ds, TrainConfig(learning_rate=0.5, epochs=10, seed=seed))
    assert trace[-1][2] == accuracy(trained, ds)


def test_circuit_without_layers_trains_its_readout():
    ds = make_dataset("swap2d", 10, 4)
    model = default_task_model(ds)
    empty = QmlModel(1, QnnCircuit(model.circuit.gens, []), model.measurement, (0.3, 0.1))
    trained, trace = train(empty, ds, TrainConfig(learning_rate=0.4, epochs=3))
    assert trained.circuit.layers == [] and trained.readout != empty.readout
    a, b = trained.readout
    fresh = a * raw_loop(trained, ds.rhos()) + b
    assert abs(trace[-1][1] - float(np.mean((fresh - ds.labels()) ** 2))) <= AGREE
