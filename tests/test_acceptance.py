"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime budget is pinned here; the brute-force
oracles are written against plain loops, independent of the library solvers.
"""

import time

import numpy as np
import pytest

from equirep.decompose import (
    commutant_basis,
    find_intertwiner,
    irrep_blocks,
    isotypic_decompose,
    schur_weyl_check,
)
from equirep.equivariant import (
    EquivariantMeasurement,
    QnnCircuit,
    build_qnn,
    equivariant_generators,
)
from equirep.groups import LieAlgebraBasis, make_cyclic
from equirep.linalg import (
    I2,
    X,
    Y,
    Z,
    dagger,
    exp_unitary,
    frob,
    haar_unitaries,
    random_hermitian,
)
from equirep.representations import (
    Representation,
    adjoint_action,
    bitflip_rep,
    left_regular_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
)
from equirep.tasks import (
    QmlModel,
    TrainConfig,
    bloch_state,
    default_task_model,
    eigenspace_invariance_check,
    heisenberg_xxx,
    initialize_parameters,
    label_invariance_check,
    make_dataset,
    model_eval,
    pauli_on,
    symmetry_test,
    train,
)
from equirep.tasks import _lifted_states
from equirep.twirl import twirl_context, twirl_operator
from oracles import output_gradient_fd


def report(num, name, runtime, detail=""):
    extra = f" | {detail}" if detail else ""
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({runtime:.3f} s{extra})")


def test_criterion_01_twirl_exactness():
    ctx = twirl_context(swap_rep())
    op = np.kron(X, I2)
    expected = (np.kron(X, I2) + np.kron(I2, X)) / 2
    twirl_operator(ctx, op)  # warm up
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        out = twirl_operator(ctx, op)
        best = min(best, time.perf_counter() - t0)
    assert frob(out - expected) < 1e-12
    assert best < 1e-3
    report(1, "twirl exactness", best, f"residual {frob(out - expected):.1e}")


def test_criterion_02_purity_closed_form_and_conventional_limit():
    t0 = time.perf_counter()
    swap = swap_matrix()
    gens2 = equivariant_generators(tensor_power(su2_fundamental(), 2))
    circuit = QnnCircuit(gens2, [])  # W = 1
    meas = EquivariantMeasurement((np.eye(4) - swap) / 2)
    model = QmlModel(2, circuit, meas)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        r = rng.standard_normal(3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        h = model_eval(model, bloch_state(r))
        worst = max(worst, abs(h - 0.25 * (1 - r @ r)))
    assert worst < 1e-10

    # conventional k = 1: the commutant is one-dimensional, so the model
    # is provably constant and classifies at chance
    gens1 = equivariant_generators(su2_fundamental())
    assert gens1.dim == 1
    meas1 = EquivariantMeasurement(gens1.generators[0])
    conv = QmlModel(1, QnnCircuit(gens1, []), meas1)
    ds = make_dataset("purity", 100, seed=1)
    outs = [model_eval(conv, s.rho) for s in ds.states]
    assert np.ptp(outs) < 1e-12
    preds = [1.0 if o > 0.5 else 0.0 for o in outs]
    chance = np.mean(np.array(preds) == ds.labels())
    assert abs(chance - 0.5) < 1e-12
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(2, "purity closed form", dt, f"max err {worst:.1e}, k=1 at chance")


def test_criterion_03_block_structure_and_equivalence():
    t0 = time.perf_counter()
    t2 = tensor_power(su2_fundamental(), 2)
    ad = adjoint_action(su2_fundamental())
    dec_t = isotypic_decompose(t2, 0)
    dec_a = isotypic_decompose(ad, 0)
    assert sorted(dec_t.blocks) == [(1, 1), (3, 1)]
    assert sorted(dec_a.blocks) == [(1, 1), (3, 1)]
    for rep, dec in ((t2, dec_t), (ad, dec_a)):
        from equirep.decompose import decomposition_residuals
        res = decomposition_residuals(rep, dec)
        assert res["unitarity"] < 1e-8
        assert res["block_alignment"] < 1e-8
    bt = irrep_blocks(t2, dec_t)
    ba = irrep_blocks(ad, dec_a)
    three_t = next(b for b, (d, _) in zip(bt, dec_t.blocks) if d == 3)
    three_a = next(b for b, (d, _) in zip(ba, dec_a.blocks) if d == 3)
    it = find_intertwiner(three_t, three_a)
    assert it.verdict == "equivalent"
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(3, "isotypic blocks + equivalence", dt, "blocks (3,1),(1,1) twice")


def brute_force_commutant_dim(constraints):
    """From-scratch oracle: entrywise constraint assembly + eigen count."""
    d = constraints[0].shape[0]
    rows = []
    for k in constraints:
        mat = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for a in range(d):
                    for b in range(d):
                        coeff = 0.0 + 0.0j
                        if i == a:
                            coeff += k[b, j]
                        if j == b:
                            coeff -= k[i, a]
                        mat[i * d + j, a * d + b] = coeff
        rows.append(mat)
    stacked = np.vstack(rows)
    normal = dagger(stacked) @ stacked
    evals = np.linalg.eigvalsh(normal)
    return int(np.sum(evals < 1e-18 + 1e-12 * max(evals.max(), 1.0)))


def test_criterion_04_commutant_dimensions_vs_brute_force():
    t0 = time.perf_counter()
    cases = [
        (su2_fundamental(), 1),
        (tensor_power(su2_fundamental(), 2), 2),
        (swap_rep(), 10),
        (perm_rep_qubits(3), 20),
    ]
    for rep, expected in cases:
        assert commutant_basis(rep).dim == expected
        assert brute_force_commutant_dim(rep.generator_images) == expected
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(4, "commutant dims vs brute force", dt, "1 / 2 / 10 / 20")


def test_criterion_05_schur_weyl():
    t0 = time.perf_counter()
    r2 = schur_weyl_check(2, 2)
    assert r2.projector_distance_perm_side < 1e-8
    assert r2.projector_distance_tensor_side < 1e-8
    assert sorted(r2.tensor_blocks) == [(1, 1), (3, 1)]
    # S_2 side: trivial on Sym^2 (multiplicity 3), sign on Alt^2
    assert sorted(r2.perm_blocks) == [(1, 1), (1, 3)]
    assert r2.pairing_ok
    # in the tensor-side decomposition basis, P_SWAP = 1_3 (+) (-1_1)
    from equirep.representations import unitary_algebra_rep
    dec = isotypic_decompose(tensor_power(unitary_algebra_rep(2), 2), 0)
    s_rot = dagger(dec.q) @ swap_matrix() @ dec.q
    assert frob(s_rot - np.diag([1.0, 1.0, 1.0, -1.0])) < 1e-8

    r3 = schur_weyl_check(2, 3)
    assert r3.projector_distance_perm_side < 1e-8
    assert r3.projector_distance_tensor_side < 1e-8
    assert sorted(r3.perm_blocks) == [(1, 4), (2, 2)]
    assert r3.pairing_ok
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(5, "Schur-Weyl mutual commutants", dt,
           f"dims {r3.perm_commutant_dim}/{r3.tensor_commutant_dim}")


@pytest.mark.parametrize("name,k", [("bitflip1d", 1), ("purity", 2),
                                    ("swap2d", 1), ("ferro", 1)])
def test_criterion_06_equivariance_end_to_end(name, k):
    t0 = time.perf_counter()
    ds = make_dataset(name, 200, seed=7)
    model = initialize_parameters(default_task_model(ds, copies=k), seed=7)
    gens = model.circuit.gens
    rep_k = gens.rep
    w = model.circuit.unitary()
    residual = max(frob(w @ op - op @ w) for op in rep_k.generator_images)
    if rep_k.flavor == "lie":
        for u in rep_k.sample_elements(7, 20):
            residual = max(residual, frob(w @ u - u @ w))
    assert residual < 1e-9

    cfg = TrainConfig(learning_rate=0.5, epochs=200, seed=7)
    trained, _ = train(model, ds, cfg)
    deviation = label_invariance_check(trained, ds.rep, ds, n_samples=20)
    assert deviation < 1e-8
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(6, f"equivariant training [{name}]", dt,
           f"residual {residual:.1e}, deviation {deviation:.1e}")


def test_criterion_07_k_design_vs_monte_carlo():
    t0 = time.perf_counter()
    from equirep.twirl import k_design_twirl
    n = 10 ** 5
    rng = np.random.default_rng(3)
    # accumulate the empirical twirl superoperator once, apply to 10 operators
    acc = np.zeros((16, 16), dtype=complex)
    mc_rng = np.random.default_rng(4)
    batch = 1000
    done = 0
    while done < n:
        nb = min(batch, n - done)
        us = haar_unitaries(2, nb, mc_rng)
        u2 = np.einsum("nij,nkl->nikjl", us, us).reshape(nb, 4, 4)
        acc += np.einsum("nij,nkl->ikjl", u2, u2.conj()).reshape(16, 16)
        done += nb
    acc /= n
    bound = 5 / np.sqrt(n)
    worst = 0.0
    for _ in range(10):
        o = random_hermitian(4, rng)
        o /= frob(o)
        exact = k_design_twirl(2, 2, o)
        mc = (acc @ o.reshape(-1)).reshape(4, 4)
        worst = max(worst, frob(mc - exact))
    assert worst < bound
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(7, "k-design twirl vs Monte Carlo", dt,
           f"worst {worst:.2e} < {bound:.2e}")


def test_criterion_08_symmetry_detection():
    t0 = time.perf_counter()
    h = heisenberg_xxx(3)
    imgs = [sum(pauli_on(p, j, 3) for j in range(3)) for p in (X, Y, Z)]
    alg = LieAlgebraBasis([m.copy() for m in imgs])
    rep = Representation(alg, "lie", 8, "su2-local-3", generator_images=imgs)
    sym = symmetry_test(h, rep)
    assert sym.commutes and sym.max_residual < 1e-10
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        s = swap_matrix(3, a, b)
        assert frob(h @ s - s @ h) < 1e-10

    eig = eigenspace_invariance_check(h, tensor_power(su2_fundamental(), 3))
    assert eig.invariant

    counter = eigenspace_invariance_check(np.eye(2, dtype=complex), bitflip_rep(1))
    assert counter.invariant
    assert not counter.eigenvectors_all_fixed
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(8, "symmetry detection", dt,
           f"XXX residual {sym.max_residual:.1e}, eigvec counterexample held")


def test_criterion_09_left_regular_block_diagonalization():
    t0 = time.perf_counter()
    for n in range(2, 9):
        rep = left_regular_rep(make_cyclic(n))
        dec = isotypic_decompose(rep, 0)
        assert dec.blocks == [(1, 1)] * n
        q = dec.q
        for g in range(n):
            rot = dagger(q) @ rep.representative(g) @ q
            off = rot - np.diag(np.diag(rot))
            assert frob(off) < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(9, "left regular block diagonalization", dt, "Z_2 .. Z_8 all diagonal")


def closed_form_gradient(model, rho):
    gens = model.circuit.gens
    layers = model.circuit.layers
    lifted = _lifted_states(model, [rho])[0]
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
        grad[l] = np.trace(sigma @ (1j * (h @ m_eff - m_eff @ h))).real
    return grad


def test_criterion_10_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    reps = [swap_rep(), tensor_power(su2_fundamental(), 2), perm_rep_qubits(3),
            tensor_power(swap_rep(), 2)]  # carrier dims 4, 4, 8, 16
    gens_cache = [equivariant_generators(r) for r in reps]
    checked = 0
    worst = 0.0
    while checked < 100:
        pick = int(rng.integers(len(reps)))
        rep, gens = reps[pick], gens_cache[pick]
        layout = [(int(rng.integers(gens.dim)), float(rng.uniform(-2, 2)))
                  for _ in range(int(rng.integers(1, 5)))]
        meas = EquivariantMeasurement(gens.project(random_hermitian(rep.dim, rng)))
        model = QmlModel(1, QnnCircuit(gens, layout), meas)
        a = random_hermitian(rep.dim, rng)
        rho = a @ dagger(a)
        rho /= np.trace(rho)
        fd = output_gradient_fd(model, rho, h=1e-4)
        an = closed_form_gradient(model, rho)
        if np.max(np.abs(an)) < 1e-3:
            continue
        rel = np.max(np.abs(fd - an) / np.maximum(np.abs(an), 1e-3))
        worst = max(worst, rel)
        checked += 1
    assert worst < 1e-5
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(10, "gradient fidelity", dt, f"worst rel err {worst:.2e}")
