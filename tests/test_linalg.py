import numpy as np
import pytest

from equirep import linalg
from equirep.errors import DimensionMismatchError, NotHermitianError
from equirep.linalg import (
    DEFAULT_TOL,
    I2,
    Tolerance,
    X,
    Y,
    Z,
    comm,
    conjugation_superoperator,
    dagger,
    devectorize,
    exp_unitary,
    frob,
    herm_eig,
    hs_inner,
    kron,
    partial_trace,
    random_hermitian,
    vectorize,
)
from kernel_oracle import null_space


def test_kron_identity():
    assert np.allclose(kron(I2, I2), np.eye(4))


def test_kron_mixed_product_rule():
    # (a x b)(c x d) = ac x bd, checked on the explicit 4x4 product
    lhs = kron(X, I2) @ kron(I2, X)
    assert np.allclose(lhs, kron(X, X))


def test_kron_zz_diagonal():
    d = np.diag(kron(Z, Z)).real
    assert np.allclose(d, [1, -1, -1, 1])


def test_herm_eig_diagonal_input():
    w, _ = herm_eig(Z)
    assert np.allclose(w, [-1, 1])


def test_herm_eig_x_gives_hadamard_columns():
    w, v = herm_eig(X)
    assert np.allclose(w, [-1, 1])
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # columns match up to phase
    for i in range(2):
        overlap = abs(np.vdot(h[:, 1 - i], v[:, i]))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_herm_eig_identity():
    w, _ = herm_eig(np.eye(4, dtype=complex))
    assert np.allclose(w, 1.0)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([[0, 1], [0, 0]], dtype=complex))
    # one bad matrix anywhere in a stack rejects the stack
    with pytest.raises(NotHermitianError):
        herm_eig(np.array([Z, X, [[0, 1], [0, 0]]], dtype=complex))


def test_herm_eig_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        h = random_hermitian(6, rng)
        w, v = herm_eig(h)
        assert frob(h - (v * w) @ dagger(v)) < 1e-10 * max(frob(h), 1)
        assert list(w) == sorted(w)


def test_exp_unitary_ry_form():
    # exp(-i theta Y/2) = cos(theta/2) 1 - i sin(theta/2) Y
    for theta in (0.3, 1.2, -2.5):
        u = exp_unitary(Y / 2, theta)
        expected = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * Y
        assert frob(u - expected) < 1e-12


def test_exp_unitary_zero_angle():
    rng = np.random.default_rng(1)
    h = random_hermitian(5, rng)
    assert frob(exp_unitary(h, 0.0) - np.eye(5)) < 1e-14


def test_exp_unitary_halfz_pi():
    u = exp_unitary(Z / 2, np.pi)
    assert frob(u - np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])) < 1e-12
    assert frob(u - (-1j) * Z) < 1e-12


def test_exp_unitary_group_property():
    rng = np.random.default_rng(2)
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        h = random_hermitian(dim, rng)
        t1, t2 = rng.uniform(-3, 3, size=2)
        lhs = exp_unitary(h, t1) @ exp_unitary(h, t2)
        assert frob(lhs - exp_unitary(h, t1 + t2)) < 1e-10


def test_exp_unitary_output_unitary():
    rng = np.random.default_rng(3)
    h = random_hermitian(8, rng)
    u = exp_unitary(h, 0.7)
    assert frob(dagger(u) @ u - np.eye(8)) < 1e-12


# null_space left equirep.linalg with the kernel solver; these tests keep the
# oracle in tests/kernel_oracle.py honest.

def test_null_space_zero_matrix():
    k = null_space(np.zeros((3, 3)))
    assert k.shape == (3, 3)
    assert frob(dagger(k) @ k - np.eye(3)) < 1e-12


def test_null_space_identity_empty():
    assert null_space(np.eye(4)).shape == (4, 0)


def test_null_space_commutator_with_x():
    # kernel of B -> [B, X] on one-qubit operators is span{1, X}
    m = linalg.commutator_superoperator(X)
    k = null_space(m)
    assert k.shape[1] == 2
    for vec in (vectorize(I2), vectorize(X)):
        proj = k @ (dagger(k) @ vec)
        assert np.linalg.norm(proj - vec) < 1e-10
    # kernel residual and orthonormality
    assert frob(m @ k) < 1e-9
    assert frob(dagger(k) @ k - np.eye(2)) < 1e-10


def test_null_space_gram_and_kernel_residuals_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        k = null_space(a)
        assert k.shape[1] == 3
        assert frob(dagger(k) @ k - np.eye(k.shape[1])) < 1e-10
        assert frob(a @ k) < 1e-9 * frob(a)


@pytest.mark.parametrize("rows,cols,rank", [(40, 7, 4), (9, 9, 5), (5, 12, 3)])
def test_null_space_tall_square_and_wide_match_the_kernel(rows, cols, rank):
    rng = np.random.default_rng(rows * cols)
    a = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) \
        @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
    k = null_space(a)
    # the kernel is every x with a x = 0: cols - rank orthonormal columns
    assert k.shape == (cols, cols - rank)
    assert frob(dagger(k) @ k - np.eye(cols - rank)) < 1e-10
    assert frob(a @ k) < 1e-9 * frob(a)


def test_partial_trace_product_state():
    rng = np.random.default_rng(5)
    a = random_hermitian(2, rng)
    a = a @ dagger(a)
    a /= np.trace(a)
    b = random_hermitian(3, rng)
    b = b @ dagger(b)
    b /= np.trace(b)
    out = partial_trace(np.kron(a, b), [2, 3], keep=[0])
    assert frob(out - a) < 1e-12


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    out = partial_trace(rho, [2, 2], keep=[0])
    assert frob(out - I2 / 2) < 1e-12


def test_partial_trace_keep_everything():
    rng = np.random.default_rng(6)
    rho = random_hermitian(4, rng)
    assert frob(partial_trace(rho, [2, 2], keep=[0, 1]) - rho) < 1e-14


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(7)
    rho = random_hermitian(8, rng)
    out = partial_trace(rho, [2, 2, 2], keep=[1])
    assert abs(np.trace(out) - np.trace(rho)) < 1e-12
    assert frob(out - dagger(out)) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        partial_trace(np.eye(4), [2, 3], keep=[0])


def test_partial_trace_keep_nothing_gives_full_trace():
    rng = np.random.default_rng(42)
    rho = random_hermitian(4, rng)
    out = partial_trace(rho, [2, 2], keep=[])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(rho)) < 1e-12


def test_hs_inner_values():
    assert hs_inner(X, X) == pytest.approx(2.0)
    assert hs_inner(X, Z) == pytest.approx(0.0)
    assert hs_inner(I2, I2) == pytest.approx(2.0)


def test_hs_inner_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        hs_inner(I2, np.eye(3))


def test_vectorize_round_trip():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert frob(devectorize(vectorize(a)) - a) < 1e-15


def test_conjugation_superoperator_identity():
    assert frob(conjugation_superoperator(I2) - np.eye(4)) < 1e-15


def test_conjugation_superoperator_xzx():
    out = devectorize(conjugation_superoperator(X) @ vectorize(Z))
    assert frob(out - (-Z)) < 1e-14


def test_conjugation_superoperator_acts_on_basis():
    rng = np.random.default_rng(9)
    u = linalg.haar_unitary(3, rng)
    sup = conjugation_superoperator(u)
    for _ in range(6):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.linalg.norm(sup @ vectorize(a) - vectorize(u @ a @ dagger(u))) < 1e-12


def test_conjugation_superoperator_homomorphism():
    rng = np.random.default_rng(10)
    u = linalg.haar_unitary(4, rng)
    v = linalg.haar_unitary(4, rng)
    lhs = conjugation_superoperator(u @ v)
    rhs = conjugation_superoperator(u) @ conjugation_superoperator(v)
    assert frob(lhs - rhs) < 1e-10


def test_commutator_superoperator_matches_commutator():
    rng = np.random.default_rng(11)
    h = random_hermitian(3, rng)
    sup = linalg.commutator_superoperator(h)
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.linalg.norm(sup @ vectorize(b) - vectorize(comm(h, b))) < 1e-12


def test_predicates():
    assert linalg.is_unitary(exp_unitary(X, 0.4))
    assert linalg.is_hermitian(X)
    assert not linalg.is_hermitian(1j * X)
    rho = np.diag([0.25, 0.75]).astype(complex)
    assert linalg.is_psd(rho)
    assert linalg.is_trace_one(rho)
    assert not linalg.is_psd(Z)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(-1.0, 0.0)
    with pytest.raises(ValueError):
        Tolerance(np.inf, 0.0)
    assert DEFAULT_TOL.threshold(100.0) == pytest.approx(1e-7)


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(12)
    u = linalg.haar_unitary(5, rng)
    assert frob(dagger(u) @ u - np.eye(5)) < 1e-12
    u1 = linalg.haar_unitary(3, np.random.default_rng(99))
    u2 = linalg.haar_unitary(3, np.random.default_rng(99))
    assert np.array_equal(u1, u2)
