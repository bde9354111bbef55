import numpy as np
import pytest

from equirep import linalg
from equirep.decompose import block_diagonal_part, isotypic_decompose
from equirep.equivariant import (
    EquivariantMeasurement,
    QnnCircuit,
    check_equivariance,
    equivariant_generators,
)
from equirep.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidShellError,
    PrerequisiteFailedError,
)
from equirep.groups import LieAlgebraBasis, make_cyclic
from equirep.linalg import (
    I2,
    X,
    Y,
    Z,
    comm,
    dagger,
    exp_unitary,
    frob,
    kron,
    partial_trace,
    random_hermitian,
)
from equirep.representations import (
    Representation,
    bitflip_rep,
    left_regular_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
    translation_rep,
    trivial_rep,
)
from equirep.tasks import (
    Dataset,
    LabeledState,
    QmlModel,
    TrainConfig,
    accuracy,
    bloch_state,
    default_task_model,
    eigenspace_invariance_check,
    gen_bitflip1d,
    gen_ferro,
    gen_purity,
    gen_swap2d,
    heisenberg_xxx,
    initialize_parameters,
    label_invariance_check,
    make_dataset,
    model_eval,
    output_gradient_fd,
    plus_state,
    ry,
    sum_pauli,
    symmetry_test,
    train,
)
from equirep.twirl import twirl_channel


# -- dataset generation --------------------------------------------------------

def test_bitflip1d_zero_angle_state():
    # x = 0 encodes |+><+| with label 0
    rho = plus_state()
    ds = gen_bitflip1d(4, seed=0)
    assert ds.relabel(rho) == 0.0


def test_bitflip1d_interval_membership():
    u = ry(np.pi / 3)
    rho = u @ plus_state() @ dagger(u)
    ds = gen_bitflip1d(4, seed=0)
    assert ds.relabel(rho) == 1.0


def test_bitflip1d_mirror_symmetric_labels():
    ds = gen_bitflip1d(60, seed=1)
    for s in ds.states:
        x = s.meta["x"]
        u = ry(-x)
        mirrored = u @ plus_state() @ dagger(u)
        assert ds.relabel(mirrored) == s.label


def test_bitflip1d_balanced():
    ds = gen_bitflip1d(100, seed=2)
    assert np.sum(ds.labels()) == 50


def test_purity_examples():
    ds = gen_purity(10, seed=3)
    assert ds.relabel(np.eye(2, dtype=complex) / 2) == 1.0
    for s in ds.states:
        if s.label == 0.0:
            assert abs(np.trace(s.rho @ s.rho).real - 1) < 1e-12


def test_purity_conjugation_preserves_label_and_purity():
    ds = gen_purity(10, seed=4)
    for u in ds.rep.sample_elements(5, 5):
        for s in ds.states:
            moved = u @ s.rho @ dagger(u)
            assert ds.relabel(moved) == s.label
            assert abs(np.trace(moved @ moved).real
                       - np.trace(s.rho @ s.rho).real) < 1e-10


def test_purity_invalid_shell():
    with pytest.raises(InvalidShellError):
        gen_purity(10, seed=0, mixed_shell=(0.8, 0.2))
    with pytest.raises(InvalidShellError):
        gen_purity(10, seed=0, mixed_shell=(0.2, 1.0))


def test_swap2d_exchange_symmetric_labels():
    ds = gen_swap2d(40, seed=5)
    for s in ds.states:
        x1, x2 = s.meta["x"]
        u = kron(ry(x2), ry(x1))
        swapped = u @ kron(plus_state(), plus_state()) @ dagger(u)
        assert ds.relabel(swapped) == s.label


def test_ferro_aligned_and_antialigned():
    ds = gen_ferro(20, seed=6)
    rng = np.random.default_rng(7)
    r = rng.standard_normal(3)
    r *= 0.9 / np.linalg.norm(r)
    assert ds.relabel(kron(bloch_state(r), bloch_state(r))) == 0.0
    assert ds.relabel(kron(bloch_state(r), bloch_state(-r))) == 1.0
    # sign pattern of Tr[(rho_a x rho_b)(sigma x sigma)] flips with alignment
    aligned = kron(bloch_state(r), bloch_state(r))
    anti = kron(bloch_state(r), bloch_state(-r))
    for p, comp in ((X, r[0]), (Y, r[1]), (Z, r[2])):
        val_a = np.trace(aligned @ kron(p, p)).real
        val_b = np.trace(anti @ kron(p, p)).real
        assert abs(val_a - comp * comp) < 1e-12
        assert abs(val_b + comp * comp) < 1e-12


@pytest.mark.parametrize("name", ["bitflip1d", "purity", "swap2d", "ferro"])
def test_datasets_pass_declared_label_symmetry(name):
    ds = make_dataset(name, 30, seed=8)
    actions = ds.rep.sample_elements(9, 50)
    for s in ds.states:
        for u in actions:
            assert ds.relabel(u @ s.rho @ dagger(u)) == s.label


# The per-sample generators that the stacked builds replaced, kept as
# references: each returns the (rho, label, meta) rows of one dataset.

def ry_scalar(theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def bloch_scalar(r):
    return (I2 + r[0] * X + r[1] * Y + r[2] * Z) / 2


def ref_bitflip1d(n, seed):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if i % 2 == 0:
            x, label = float(rng.uniform(-np.pi / 4, np.pi / 4)), 0.0
        else:
            x = float(rng.uniform(np.pi / 4, np.pi / 2)) * (1 if rng.random() < 0.5 else -1)
            label = 1.0
        u = ry_scalar(x)
        rows.append((u @ plus_state() @ dagger(u), label, {"x": x}))
    return rows


def ref_purity(n, seed, lo=0.2, hi=0.8):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        if i % 2 == 0:
            rows.append((bloch_scalar(direction), 0.0, {"r": 1.0}))
        else:
            r = float(rng.uniform(lo, hi))
            rows.append((bloch_scalar(r * direction), 1.0, {"r": r}))
    return rows


def ref_swap2d(n, seed, s0=0.7):
    rng = np.random.default_rng(seed)
    plus2 = np.kron(plus_state(), plus_state())
    rows = []
    for i in range(n):
        want = 0.0 if i % 2 == 0 else 1.0
        while True:
            x1, x2 = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
            label = 0.0 if abs(np.sin(x1) + np.sin(x2)) <= s0 else 1.0
            if label == want:
                break
        u = np.kron(ry_scalar(x1), ry_scalar(x2))
        rows.append((u @ plus2 @ dagger(u), label, {"x": (float(x1), float(x2))}))
    return rows


def ref_ferro(n, seed, lo=0.2, hi=1.0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        r = float(rng.uniform(lo, hi)) * direction
        other = r if i % 2 == 0 else -r
        rows.append((np.kron(bloch_scalar(r), bloch_scalar(other)), float(i % 2),
                     {"r": r.tolist()}))
    return rows


REFERENCE_GENERATORS = {"bitflip1d": ref_bitflip1d, "purity": ref_purity,
                        "swap2d": ref_swap2d, "ferro": ref_ferro}


@pytest.mark.parametrize("name", sorted(REFERENCE_GENERATORS))
def test_stacked_datasets_match_per_sample_generators(name):
    # every task's states match the per-sample build bit for bit
    for seed in range(12):
        for n in (1, 2, 33):
            ds = make_dataset(name, n, seed)
            ref = REFERENCE_GENERATORS[name](n, seed)
            assert [s.label for s in ds.states] == [label for _, label, _ in ref]
            assert [s.meta for s in ds.states] == [meta for _, _, meta in ref]
            want = np.array([rho for rho, _, _ in ref])
            assert ds.rhos().tobytes() == want.tobytes()


def test_empty_or_ragged_datasets_fail_at_the_stack():
    ds = make_dataset("swap2d", 4, seed=1)
    model = initialize_parameters(default_task_model(ds), 1)
    empty = Dataset("swap2d", [], ds.rep, ds.params)
    ragged = Dataset("swap2d", ds.states + [LabeledState(plus_state(), 0.0)], ds.rep, ds.params)
    for data, error in ((empty, InvalidParameterError), (ragged, DimensionMismatchError)):
        for call in (lambda: train(model, data, TrainConfig(epochs=1)),
                     lambda: accuracy(model, data),
                     lambda: label_invariance_check(model, ds.rep, data)):
            with pytest.raises(error):
                call()


def test_swap2d_rejects_a_threshold_that_empties_a_class():
    for s0 in (0.0, -1.0, 2.0, 3.5, float("nan")):
        with pytest.raises(InvalidParameterError):
            gen_swap2d(4, seed=0, s0=s0)


# -- model evaluation ------------------------------------------------------------

def purity_model():
    ds = gen_purity(4, seed=0)
    return default_task_model(ds, copies=2)


def test_purity_model_closed_form_endpoints():
    model = purity_model()
    pure = bloch_state([0, 0, 1.0])
    assert abs(model_eval(model, pure)) < 1e-12
    assert abs(model_eval(model, np.eye(2, dtype=complex) / 2) - 0.25) < 1e-12


def test_purity_model_closed_form_200_states():
    model = purity_model()
    rng = np.random.default_rng(10)
    for _ in range(200):
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho = bloch_state(r)
        assert abs(model_eval(model, rho) - 0.25 * (1 - r @ r)) < 1e-10


def test_identity_measurement_gives_one():
    rep = swap_rep()
    gens = equivariant_generators(rep)
    circuit = QnnCircuit(gens, [])
    meas = EquivariantMeasurement(np.eye(4, dtype=complex))
    model = QmlModel(1, circuit, meas)
    rng = np.random.default_rng(11)
    a = random_hermitian(4, rng)
    rho = a @ dagger(a)
    rho /= np.trace(rho)
    assert abs(model_eval(model, rho) - 1.0) < 1e-12


def test_conventional_su2_model_is_constant():
    # k=1 with the only SU(2)-equivariant M (prop. to identity): h = const
    ds = gen_purity(30, seed=12)
    rep = ds.rep
    gens = equivariant_generators(rep)
    assert gens.dim == 1
    m = EquivariantMeasurement(gens.generators[0])
    model = QmlModel(1, QnnCircuit(gens, []), m)
    outputs = [model_eval(model, s.rho) for s in ds.states]
    assert np.ptp(outputs) < 1e-12
    # chance accuracy once the readout is centered on the constant
    model = QmlModel(1, model.circuit, model.measurement, (1.0, 0.0))
    assert abs(accuracy(model, ds) - 0.5) < 0.2


def test_model_eval_output_real():
    model = purity_model()
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho = bloch_state(r)
        lifted = model.lifted_input(rho)
        w = model.circuit.unitary()
        raw = np.trace(w @ lifted @ dagger(w) @ model.measurement.m)
        assert abs(raw.imag) < 1e-12


# -- training ----------------------------------------------------------------------

def test_train_zero_epochs_is_identity():
    ds = gen_bitflip1d(20, seed=14)
    model = initialize_parameters(default_task_model(ds, copies=1), seed=3)
    cfg = TrainConfig(epochs=0)
    trained, trace = train(model, ds, cfg)
    assert np.array_equal(trained.circuit.parameters, model.circuit.parameters)
    assert trained.readout == model.readout
    assert len(trace) == 1


def test_train_purity_reaches_perfect_accuracy():
    # margin shell keeps the regression threshold inside the class gap
    ds = gen_purity(120, seed=15, mixed_shell=(0.3, 0.7))
    model = default_task_model(ds, copies=2)
    cfg = TrainConfig(learning_rate=0.5, epochs=300, seed=15)
    trained, trace = train(model, ds, cfg)
    assert accuracy(trained, ds) == 1.0
    # trained threshold sits between 0 and the minimum mixed-class output
    a, b = trained.readout
    crossing = (trained.threshold - b) / a
    assert 0.0 < crossing < 0.25 * (1 - 0.7 ** 2)


def test_train_loss_decreases_overall():
    ds = gen_ferro(80, seed=16)
    model = initialize_parameters(default_task_model(ds, copies=1), seed=16)
    cfg = TrainConfig(learning_rate=0.5, epochs=100, seed=16)
    _, trace = train(model, ds, cfg)
    assert trace[-1][1] < trace[0][1]


def test_train_bce_loss_runs_and_improves():
    ds = gen_ferro(60, seed=27)
    model = initialize_parameters(default_task_model(ds, copies=1), seed=27)
    cfg = TrainConfig(learning_rate=0.3, epochs=40, seed=27, loss="bce")
    trained, trace = train(model, ds, cfg)
    assert trace[-1][1] < trace[0][1]
    assert accuracy(trained, ds) > 0.6


def test_train_config_validation():
    with pytest.raises(InvalidParameterError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(InvalidParameterError):
        TrainConfig(epochs=-2)
    with pytest.raises(InvalidParameterError):
        TrainConfig(loss="hinge")


def test_make_dataset_unknown_task():
    from equirep.errors import InvalidParameterError
    with pytest.raises(InvalidParameterError):
        make_dataset("nosuchtask", 10)


def test_train_deterministic_per_seed():
    ds = gen_swap2d(30, seed=17)
    model = initialize_parameters(default_task_model(ds, copies=1), seed=4)
    cfg = TrainConfig(learning_rate=0.3, epochs=5, seed=4)
    t1, trace1 = train(model, ds, cfg)
    t2, trace2 = train(model, ds, cfg)
    assert np.array_equal(t1.circuit.parameters, t2.circuit.parameters)
    assert trace1 == trace2


def closed_form_gradient(model, rho):
    """Independent oracle: d/dtheta_l Tr[W rho W^dag M]
    = Tr[(E_l B rho_k B^dag E_l^dag) i[H_l, A^dag M A]] with W = A E_l B."""
    gens = model.circuit.gens
    layers = model.circuit.layers
    lifted = model.lifted_input(rho)
    m = model.measurement.m
    mats = [exp_unitary(gens.generators[i], t) for i, t in layers]
    grad = np.zeros(len(layers))
    for l, (idx, _) in enumerate(layers):
        a = np.eye(model.circuit.dim, dtype=complex)
        for e in mats[:l]:
            a = a @ e
        b = np.eye(model.circuit.dim, dtype=complex)
        for e in mats[l + 1:]:
            b = b @ e
        h = gens.generators[idx]
        sigma = mats[l] @ b @ lifted @ dagger(b) @ dagger(mats[l])
        m_eff = dagger(a) @ m @ a
        grad[l] = np.trace(sigma @ (1j * comm(h, m_eff))).real
    return grad


def test_gradient_single_layer_matches_spec_form():
    # d/dtheta Tr[e^{-i t H} rho e^{i t H} M] = Tr[e^{-i t H} rho e^{i t H} i[H, M]]
    rng = np.random.default_rng(18)
    rep = swap_rep()
    gens = equivariant_generators(rep)
    for _ in range(10):
        theta = float(rng.uniform(-2, 2))
        idx = int(rng.integers(1, gens.dim))
        circuit = QnnCircuit(gens, [(idx, theta)])
        m = random_hermitian(4, rng)
        meas = EquivariantMeasurement(gens.project(m))
        model = QmlModel(1, circuit, meas)
        a = random_hermitian(4, rng)
        rho = a @ dagger(a)
        rho /= np.trace(rho)
        fd = output_gradient_fd(model, rho, h=1e-4)
        an = closed_form_gradient(model, rho)
        denom = max(abs(an[0]), 1e-8)
        assert abs(fd[0] - an[0]) / denom < 1e-5


def test_gradient_oracle_100_random_configurations():
    rng = np.random.default_rng(19)
    reps = [swap_rep(), tensor_power(su2_fundamental(), 2), perm_rep_qubits(3),
            tensor_power(swap_rep(), 2)]   # dims 4, 4, 8, 16
    gens_cache = [equivariant_generators(r) for r in reps]
    checked = 0
    worst = 0.0
    while checked < 100:
        pick = int(rng.integers(len(reps)))
        rep, gens = reps[pick], gens_cache[pick]
        n_layers = int(rng.integers(1, 5))
        layout = [(int(rng.integers(gens.dim)), float(rng.uniform(-2, 2)))
                  for _ in range(n_layers)]
        circuit = QnnCircuit(gens, layout)
        meas = EquivariantMeasurement(gens.project(random_hermitian(rep.dim, rng)))
        model = QmlModel(1, circuit, meas)
        a = random_hermitian(rep.dim, rng)
        rho = a @ dagger(a)
        rho /= np.trace(rho)
        fd = output_gradient_fd(model, rho, h=1e-4)
        an = closed_form_gradient(model, rho)
        if np.max(np.abs(an)) < 1e-3:
            continue  # skip near-critical draws where relative error is ill-posed
        rel = np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-3))
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-5


# -- invariance ---------------------------------------------------------------------

@pytest.mark.parametrize("name,k", [("bitflip1d", 1), ("purity", 2),
                                    ("swap2d", 1), ("ferro", 1)])
def test_trained_models_are_exactly_symmetric(name, k):
    ds = make_dataset(name, 40, seed=20)
    model = initialize_parameters(default_task_model(ds, copies=k), seed=20)
    cfg = TrainConfig(learning_rate=0.5, epochs=30, seed=20)
    trained, _ = train(model, ds, cfg)
    assert label_invariance_check(trained, ds.rep, ds, n_samples=20) < 1e-8


def test_label_invariance_flags_non_equivariant_probe():
    ds = gen_swap2d(10, seed=21)
    rep = ds.rep
    gens = equivariant_generators(rep)
    probe = EquivariantMeasurement(kron(Z, I2))  # not equivariant
    model = QmlModel(1, QnnCircuit(gens, []), probe)
    # craft an asymmetric product state and append it to the dataset
    u = kron(ry(1.2), ry(-0.3))
    rho = u @ kron(plus_state(), plus_state()) @ dagger(u)
    crafted = Dataset("swap2d", ds.states + [LabeledState(rho, 0.0, {})],
                      rep, ds.params)
    assert label_invariance_check(model, rep, crafted) > 0.01


def test_label_invariance_trivial_rep_is_exact_zero():
    ds = gen_swap2d(5, seed=22)
    triv = trivial_rep(ds.rep.group, 4)
    model = default_task_model(ds, copies=1)
    assert label_invariance_check(model, triv, ds) == 0.0


# -- symmetry detection -----------------------------------------------------------

def collective_su2_rep(n):
    imgs = [sum_pauli(p, n) for p in (X, Y, Z)]
    alg = LieAlgebraBasis([m.copy() for m in imgs], name=f"su2-collective-{n}")
    return Representation(alg, "lie", 2 ** n, f"su2-local-{n}",
                          generator_images=imgs)


def test_symmetry_xxx_commutes_with_total_magnetization():
    h = heisenberg_xxx(3)
    rep = collective_su2_rep(3)
    report = symmetry_test(h, rep)
    assert report.commutes
    assert report.max_residual < 1e-10


def test_symmetry_xxx_commutes_with_all_transposition_swaps():
    h = heisenberg_xxx(3)
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        s = swap_matrix(3, a, b)
        assert frob(comm(h, s)) < 1e-10


def test_symmetry_translation_invariant_hamiltonian():
    h = heisenberg_xxx(4, periodic=True)
    rep = translation_rep(4)
    assert symmetry_test(h, rep).commutes


def test_symmetry_z_fails_bitflip():
    report = symmetry_test(Z, bitflip_rep(1))
    assert not report.commutes
    assert abs(report.max_residual - 2 * np.sqrt(2)) < 1e-12


def test_eigenspace_identity_with_bitflip():
    report = eigenspace_invariance_check(np.eye(2, dtype=complex), bitflip_rep(1))
    assert report.invariant
    assert not report.eigenvectors_all_fixed  # X|0> = |1>


def test_eigenspace_z_with_trivial_rep():
    report = eigenspace_invariance_check(Z, trivial_rep(bitflip_rep(1).group, 2))
    assert report.invariant
    assert report.eigenvectors_all_fixed


def test_eigenspace_xxx_two_qubits_under_uxu():
    h = heisenberg_xxx(2, periodic=False)
    rep = tensor_power(su2_fundamental(), 2)
    report = eigenspace_invariance_check(h, rep)
    assert report.invariant
    assert sorted(report.eigenvalues) == pytest.approx([-3.0, 1.0])


def loop_eigenspace_check(h, rep, rng_seed=0, n_samples=10):
    """The eigenspace check before it read only the generator images: sampled
    unitaries (lie), every element up to order 64, the generator images above
    it, and a unitarity test per action."""
    w, v = linalg.herm_eig(h, linalg.Tolerance(1e-8, 1e-8))
    spread = max(w[-1] - w[0], 1.0)
    groups, current = [], [0]
    for i in range(1, len(w)):
        if w[i] - w[current[-1]] > 1e-8 * spread:
            groups.append(current)
            current = [i]
        else:
            current.append(i)
    groups.append(current)
    if rep.flavor == "lie":
        actions = rep.sample_elements(rng_seed, n_samples)
    elif rep.group.order <= 64:
        actions = rep.representatives()
    else:
        actions = rep.generator_images
    unitary = [linalg.is_unitary(u, linalg.Tolerance(1e-8, 1e-8)) for u in actions]
    res, fixed = 0.0, 0
    for grp in groups:
        cols = v[:, grp]
        p = cols @ dagger(cols)
        for u, is_u in zip(actions, unitary):
            res = max(res, frob(u @ p @ dagger(u) - p) if is_u else frob(comm(u, p)))
    for i in range(v.shape[1]):
        vec = v[:, i]
        fixed += all(abs(abs(np.vdot(vec, u @ vec)) - np.linalg.norm(u @ vec)) < 1e-8
                     for u, is_u in zip(actions, unitary) if is_u)
    return ([float(np.mean(w[g])) for g in groups], res,
            res <= 1e-8 * max(1.0, spread), fixed == v.shape[1], fixed / max(v.shape[1], 1))


EIGENSPACE_CASES = {
    "1|bitflip1": lambda: (np.eye(2, dtype=complex), bitflip_rep(1)),
    "Z|trivial": lambda: (Z, trivial_rep(bitflip_rep(1).group, 2)),
    **{f"xxx{n}|su2x{n}": (lambda n=n: (heisenberg_xxx(n), tensor_power(su2_fundamental(), n)))
       for n in (2, 3, 4, 5)},
    **{f"xxx{n}|bitflip{n}": (lambda n=n: (heisenberg_xxx(n), bitflip_rep(n))) for n in (2, 3, 4, 5)},
    **{f"xxx{n}|translation{n}": (lambda n=n: (heisenberg_xxx(n), translation_rep(n)))
       for n in (3, 4, 5)},
    **{f"xxx{n}|perm{n}": (lambda n=n: (heisenberg_xxx(n), perm_rep_qubits(n))) for n in (2, 3)},
    "sumZ|translation3": lambda: (sum_pauli(Z, 3), translation_rep(3)),
    "swap|swap": lambda: (swap_matrix(), swap_rep()),
    "ZZ|bitflip2": lambda: (kron(Z, Z), bitflip_rep(2)),
    "XX|bitflip2": lambda: (kron(X, X), bitflip_rep(2)),
}


@pytest.mark.parametrize("name", list(EIGENSPACE_CASES))
def test_eigenspace_check_matches_the_loop_oracle(name):
    h, rep = EIGENSPACE_CASES[name]()
    got = eigenspace_invariance_check(h, rep)
    eigenvalues, res, invariant, all_fixed, fraction = loop_eigenspace_check(h, rep)
    assert got.eigenvalues == eigenvalues
    assert (got.invariant, got.eigenvectors_all_fixed, got.fixed_fraction) == \
        (invariant, all_fixed, fraction)
    assert type(got.invariant) is bool and type(got.eigenvectors_all_fixed) is bool
    assert got.projector_residual <= 1e-12 and res <= 1e-12


def _shift_sum(n):
    shift = np.roll(np.eye(n), 1, axis=0)
    return (shift + shift.T).astype(complex)


@pytest.mark.parametrize("make", [
    lambda: (_shift_sum(256), left_regular_rep(make_cyclic(256))),
    lambda: (sum_pauli(Z, 4), perm_rep_qubits(4)),
    lambda: (heisenberg_xxx(3), tensor_power(su2_fundamental(), 3)),
], ids=["regular-Z256", "perm4", "su2x3"])
def test_symmetry_checks_read_only_the_generator_images(make, monkeypatch):
    h, rep = make()
    for name in ("representatives", "sample_elements"):
        monkeypatch.setattr(Representation, name,
                            lambda self, *a, name=name, **k: pytest.fail(f"read {name}"))
    assert check_equivariance(h, rep) <= 1e-12
    assert symmetry_test(h, rep).commutes
    assert eigenspace_invariance_check(h, rep).invariant


def test_eigenspace_requires_symmetry():
    with pytest.raises(PrerequisiteFailedError):
        eigenspace_invariance_check(Z, bitflip_rep(1))


# -- composition demonstrations -----------------------------------------------------

def test_change_of_representation_pipeline():
    # embed (swap symmetry) -> equivariant W1 -> rep-change channel ->
    # equivariant W2 (bitflip pair) -> pool by partial trace -> W3 ({1, X})
    rng = np.random.default_rng(24)
    g2 = swap_rep()
    g3 = bitflip_rep(2)
    g4 = bitflip_rep(1)

    gens2 = equivariant_generators(g2)
    w1 = QnnCircuit(gens2, [(i, float(rng.uniform(-1, 1)))
                            for i in range(1, gens2.dim)]).unitary()
    phi1 = twirl_channel(g2, g3, np.eye(16, dtype=complex))
    gens3 = equivariant_generators(g3)
    w2 = QnnCircuit(gens3, [(i, float(rng.uniform(-1, 1)))
                            for i in range(1, gens3.dim)]).unitary()
    gens4 = equivariant_generators(g4)
    w3 = QnnCircuit(gens4, [(i, float(rng.uniform(-1, 1)))
                            for i in range(1, gens4.dim)]).unitary()
    m4 = gens4.project(random_hermitian(2, rng))

    def pipeline(rho):
        rho = w1 @ rho @ dagger(w1)
        vec = phi1 @ rho.reshape(-1)
        rho = vec.reshape(4, 4)
        rho = w2 @ rho @ dagger(w2)
        rho = partial_trace(rho, [2, 2], keep=[0])
        rho = w3 @ rho @ dagger(w3)
        return np.trace(rho @ m4).real

    ds = gen_swap2d(10, seed=25)
    s = swap_matrix()
    for state in ds.states:
        base = pipeline(state.rho)
        moved = pipeline(s @ state.rho @ dagger(s))
        assert abs(base - moved) < 1e-10


def test_equivariant_model_sees_only_block_diagonal_part():
    # pinching the input to the isotypic block diagonal leaves outputs unchanged
    ds = gen_swap2d(10, seed=26)
    model = initialize_parameters(default_task_model(ds, copies=1), seed=26)
    dec = isotypic_decompose(ds.rep, 0)
    for s in ds.states:
        pinched = block_diagonal_part(dec, s.rho)
        assert abs(model_eval(model, s.rho) - model_eval(model, pinched)) < 1e-9
