import numpy as np
import pytest

from equirep.decompose import block_projectors, commutant_basis, isotypic_decompose
from equirep.equivariant import (
    build_qnn,
    check_equivariance,
    equivariant_generators,
    equivariant_measurement,
    swap_symmetric_six,
)
from equirep.errors import DimensionMismatchError
from equirep.linalg import (
    I2,
    X,
    Y,
    Z,
    comm,
    dagger,
    frob,
    hs_inner,
    random_hermitian,
)
from equirep.representations import (
    bitflip_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
)
from equirep.twirl import twirl_context, twirl_operator

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                dtype=complex)


def test_generators_swap_rep_dimension_and_span():
    gens = equivariant_generators(swap_rep())
    assert gens.dim == 10
    assert gens.includes_identity
    for h in swap_symmetric_six():
        assert frob(gens.project(h) - h) < 1e-9


def test_generators_su2_fundamental_only_identity():
    gens = equivariant_generators(su2_fundamental())
    assert gens.dim == 1
    assert frob(gens.generators[0] - np.eye(2) / np.sqrt(2)) < 1e-12
    assert gens.traceless.shape == (0, 2, 2)


def test_generators_su2_tensor2_span_identity_and_swap():
    gens = equivariant_generators(tensor_power(su2_fundamental(), 2))
    assert gens.dim == 2
    for target in (np.eye(4, dtype=complex), swap_matrix()):
        assert frob(gens.project(target) - target) < 1e-9
    for h in gens.generators:
        assert frob(h - dagger(h)) < 1e-10


def test_generator_commutation_and_algebra_closure():
    for rep in (swap_rep(), perm_rep_qubits(3), tensor_power(su2_fundamental(), 2)):
        gens = equivariant_generators(rep)
        for h in gens.generators:
            for k in rep.generator_representatives():
                assert frob(comm(h, k)) < 1e-9
        # closed under i[ , ]: the commutant is an algebra
        for a in gens.generators[:4]:
            for b in gens.generators[:4]:
                c = 1j * comm(a, b)
                assert frob(gens.project(c) - c) < 1e-9


def test_generator_count_matches_commutant():
    for rep in (swap_rep(), perm_rep_qubits(3), bitflip_rep(2)):
        assert equivariant_generators(rep).dim == commutant_basis(rep).dim


def test_traceless_subbasis_is_traceless():
    gens = equivariant_generators(perm_rep_qubits(3))
    for h in gens.traceless:
        assert abs(np.trace(h)) < 1e-10


def test_build_qnn_empty_layout():
    gens = equivariant_generators(swap_rep())
    assert frob(build_qnn(gens, []) - np.eye(4)) < 1e-14


def test_build_qnn_single_layer_commutes_with_swap():
    gens = equivariant_generators(swap_rep())
    h = np.kron(X, I2) + np.kron(I2, X)
    coeffs = [hs_inner(b, h) for b in gens.generators]
    rng = np.random.default_rng(0)
    s = swap_matrix()
    for _ in range(20):
        theta = float(rng.uniform(-np.pi, np.pi))
        from equirep.linalg import exp_unitary
        w = exp_unitary(h, theta)
        assert frob(comm(w, s)) < 1e-10


def test_build_qnn_layer_order_matters():
    gens = equivariant_generators(swap_rep())
    # find a noncommuting generator pair
    pair = None
    for i in range(1, gens.dim):
        for j in range(i + 1, gens.dim):
            if frob(comm(gens.generators[i], gens.generators[j])) > 0.1:
                pair = (i, j)
                break
        if pair:
            break
    assert pair is not None
    i, j = pair
    w_ij = build_qnn(gens, [(i, 0.8), (j, 1.3)])
    w_ji = build_qnn(gens, [(j, 1.3), (i, 0.8)])
    assert frob(w_ij - w_ji) > 1e-3


def test_build_qnn_index_out_of_range():
    gens = equivariant_generators(swap_rep())
    with pytest.raises(IndexError):
        build_qnn(gens, [(99, 0.1)])


def test_build_qnn_outputs_unitary_and_equivariant():
    rng = np.random.default_rng(1)
    for rep in (swap_rep(), tensor_power(su2_fundamental(), 2)):
        gens = equivariant_generators(rep)
        layout = [(int(rng.integers(gens.dim)), float(rng.uniform(-2, 2)))
                  for _ in range(6)]
        w = build_qnn(gens, layout)
        assert frob(dagger(w) @ w - np.eye(rep.dim)) < 1e-10
        assert check_equivariance(w, rep) < 1e-9


def test_check_equivariance_cnot_fails_swap():
    assert check_equivariance(CNOT, swap_rep()) > 0.5


def test_check_equivariance_swap_is_zero():
    assert check_equivariance(swap_matrix(), swap_rep()) < 1e-14


@pytest.mark.parametrize("rep", [perm_rep_qubits(3), tensor_power(su2_fundamental(), 3)],
                         ids=["perm3", "su2x3"])
def test_check_equivariance_of_a_stack_has_the_bits_of_per_pair_norms(rep, monkeypatch):
    rng = np.random.default_rng(4)
    ops = np.array([random_hermitian(rep.dim, rng) for _ in range(7)])
    ops[2] = equivariant_generators(rep).generators[1]
    want = max(frob(comm(w, k)) for w in ops for k in rep.generator_images)
    assert check_equivariance(ops, rep) == want
    assert max(check_equivariance(w, rep) for w in ops) == want
    monkeypatch.setattr("equirep.linalg._CHUNK_BYTES", 1)   # one operator per chunk
    assert check_equivariance(ops, rep) == want
    with pytest.raises(DimensionMismatchError):
        check_equivariance(ops[None], rep)


def test_measurement_block_coefficients():
    rep = tensor_power(su2_fundamental(), 2)
    dec = isotypic_decompose(rep, 0)
    projs = block_projectors(dec)
    m_eye = equivariant_measurement(rep, [1.0, 1.0], basis=projs)
    assert frob(m_eye.m - np.eye(4)) < 1e-9
    m_swap = equivariant_measurement(rep, [1.0, -1.0], basis=projs)
    assert frob(m_swap.m - swap_matrix()) < 1e-9


def test_measurement_zero_coefficients():
    rep = swap_rep()
    m = equivariant_measurement(rep, np.zeros(10))
    assert frob(m.m) == 0.0


def test_measurement_coefficient_count_checked():
    with pytest.raises(DimensionMismatchError):
        equivariant_measurement(swap_rep(), [1.0, 2.0])


def test_measurement_commutes():
    rng = np.random.default_rng(2)
    rep = perm_rep_qubits(3)
    gens = equivariant_generators(rep)
    m = equivariant_measurement(rep, rng.standard_normal(gens.dim))
    assert frob(m.m - dagger(m.m)) < 1e-10
    for k in rep.generator_representatives():
        assert frob(comm(m.m, k)) < 1e-9


def test_model_invariance_chain_end_to_end():
    # |Tr[W rho W^dag M] - Tr[W (R rho R^dag) W^dag M]| < 1e-8
    rng = np.random.default_rng(3)
    for rep in (swap_rep(), bitflip_rep(2), tensor_power(su2_fundamental(), 2)):
        gens = equivariant_generators(rep)
        for _ in range(5):
            layout = [(int(rng.integers(gens.dim)), float(rng.uniform(-3, 3)))
                      for _ in range(4)]
            w = build_qnn(gens, layout)
            m = equivariant_measurement(rep, rng.standard_normal(gens.dim))
            a = random_hermitian(rep.dim, rng)
            rho = a @ dagger(a)
            rho /= np.trace(rho)
            base = np.trace(w @ rho @ dagger(w) @ m.m)
            actions = rep.generator_representatives() if rep.flavor == "finite" \
                else rep.sample_elements(7, 5)
            for u in actions:
                moved = np.trace(w @ u @ rho @ dagger(u) @ dagger(w) @ m.m)
                assert abs(moved - base) < 1e-8


def test_twirl_lands_in_generator_span():
    rng = np.random.default_rng(4)
    for rep in (swap_rep(), bitflip_rep(2), tensor_power(su2_fundamental(), 2)):
        gens = equivariant_generators(rep)
        ctx = twirl_context(rep)
        for _ in range(5):
            h = random_hermitian(rep.dim, rng)
            t = twirl_operator(ctx, h)
            assert frob(gens.project(t) - t) < 1e-9
