import contextlib
import io
import itertools
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from equirep.errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InvalidParameterError,
    NotCPTPError,
    NotHermitianError,
    SourceMismatchError,
    ValidationError,
)
from equirep.linalg import (
    I2,
    X,
    Y,
    Z,
    comm,
    conjugation_superoperator,
    dagger,
    frob,
    haar_unitaries,
    haar_unitary,
    random_hermitian,
)
from equirep.decompose import commutant_basis
from equirep.groups import group_from_unitaries, make_cyclic, make_dihedral, make_symmetric
from equirep.representations import (
    Representation,
    bitflip_rep,
    dihedral_rep_s3,
    direct_sum,
    dual,
    finite_rep_from_images,
    left_regular_rep,
    perm_matrix_on_tensor,
    perm_rep_qubits,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
    tensor_product,
    translation_rep,
    trivial_rep,
)
from equirep import linalg
from equirep.twirl import (
    choi_matrix,
    haar_sample_unitary,
    is_cptp,
    k_design_twirl,
    monte_carlo_k_design_twirl,
    twirl_channel,
    twirl_context,
    twirl_operator,
)

FINITE_CORPUS = [swap_rep(), bitflip_rep(1), bitflip_rep(2), perm_rep_qubits(3)]


def _signed_swap():
    return finite_rep_from_images(make_cyclic(2), [-swap_matrix()], "signed-swap")


# one context per twirl path: orbit means, the dense element sum, the commutant projection
TWIRL_CONTEXTS = {
    "orbit": lambda: twirl_context(swap_rep()),
    "dense": lambda: twirl_context(_signed_swap()),
    "projection": lambda: twirl_context(swap_rep(), "projection"),
}


def test_twirl_swap_adjoint_worked_example():
    ctx = twirl_context(swap_rep())
    out = twirl_operator(ctx, np.kron(X, I2))
    assert frob(out - (np.kron(X, I2) + np.kron(I2, X)) / 2) < 1e-12


def test_twirl_identity_fixed_point():
    for rep in FINITE_CORPUS:
        ctx = twirl_context(rep)
        eye = np.eye(rep.dim, dtype=complex)
        assert frob(twirl_operator(ctx, eye) - eye) < 1e-12


def test_twirl_z_under_bitflip_vanishes():
    ctx = twirl_context(bitflip_rep(1))
    assert frob(twirl_operator(ctx, Z)) < 1e-14


def test_twirl_su2_projection_gives_trace_part():
    ctx = twirl_context(su2_fundamental())
    rng = np.random.default_rng(0)
    for _ in range(5):
        o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = twirl_operator(ctx, o)
        assert frob(out - np.trace(o) / 2 * np.eye(2)) < 1e-10
    # Monte Carlo Haar-average cross-check
    o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    mc_rng = np.random.default_rng(1)
    n = 20000
    us = haar_unitaries(2, n, mc_rng)
    acc = (us @ o @ us.conj().transpose(0, 2, 1)).sum(axis=0)
    assert frob(acc / n - twirl_operator(ctx, o)) < 5 / np.sqrt(n)


def test_twirl_dimension_mismatch():
    for make in TWIRL_CONTEXTS.values():
        with pytest.raises(DimensionMismatchError, match=r"expected \(4, 4\)"):
            twirl_operator(make(), X)


def test_twirl_idempotent():
    rng = np.random.default_rng(2)
    for rep in FINITE_CORPUS + [su2_fundamental(), tensor_power(su2_fundamental(), 2)]:
        ctx = twirl_context(rep)
        for _ in range(50):
            o = rng.standard_normal((rep.dim, rep.dim)) \
                + 1j * rng.standard_normal((rep.dim, rep.dim))
            once = twirl_operator(ctx, o)
            assert frob(twirl_operator(ctx, once) - once) < 1e-9


def test_twirl_output_commutes():
    rng = np.random.default_rng(3)
    for rep in FINITE_CORPUS:
        ctx = twirl_context(rep)
        o = random_hermitian(rep.dim, rng)
        out = twirl_operator(ctx, o)
        for k in rep.generator_representatives():
            assert frob(comm(out, k)) < 1e-8
    lie = tensor_power(su2_fundamental(), 2)
    ctx = twirl_context(lie)
    out = twirl_operator(ctx, random_hermitian(4, rng))
    for u in lie.sample_elements(4, 20):
        assert frob(comm(out, u)) < 1e-8


def test_twirl_linear():
    rng = np.random.default_rng(4)
    ctx = twirl_context(perm_rep_qubits(2))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    al, be = 0.3 - 1.1j, 2.2 + 0.4j
    lhs = twirl_operator(ctx, al * a + be * b)
    rhs = al * twirl_operator(ctx, a) + be * twirl_operator(ctx, b)
    assert frob(lhs - rhs) < 1e-10


def test_twirl_modes_agree_on_finite_groups():
    rng = np.random.default_rng(5)
    for rep in FINITE_CORPUS:
        avg = twirl_context(rep, "average")
        proj = twirl_context(rep, "projection")
        for _ in range(5):
            o = rng.standard_normal((rep.dim, rep.dim)) \
                + 1j * rng.standard_normal((rep.dim, rep.dim))
            assert frob(twirl_operator(avg, o) - twirl_operator(proj, o)) < 1e-9


def test_twirl_preserves_trace():
    rng = np.random.default_rng(6)
    for rep in FINITE_CORPUS + [su2_fundamental()]:
        ctx = twirl_context(rep)
        o = rng.standard_normal((rep.dim, rep.dim)) \
            + 1j * rng.standard_normal((rep.dim, rep.dim))
        assert abs(np.trace(twirl_operator(ctx, o)) - np.trace(o)) < 1e-10


def test_average_mode_rejects_lie_rep():
    with pytest.raises(InvalidParameterError):
        twirl_context(su2_fundamental(), "average")


# -- channel twirl -------------------------------------------------------------

def test_channel_twirl_identity_between_z2_reps():
    rin = bitflip_rep(2)
    rout = swap_rep()
    out = twirl_channel(rin, rout, np.eye(16, dtype=complex))
    sx = swap_matrix() @ np.kron(X, X)
    expected = (np.eye(16) + np.kron(sx, sx.conj())) / 2
    assert frob(out - expected) < 1e-12
    # equivariance: Conj(V_g) T = T Conj(U_g)
    for g in range(2):
        cu = conjugation_superoperator(rin.representative(g))
        cv = conjugation_superoperator(rout.representative(g))
        assert frob(cv @ out - out @ cu) < 1e-10
    assert is_cptp(out, 4, 4)


def test_channel_twirl_fixes_equivariant_channel():
    rep = swap_rep()
    s = conjugation_superoperator(rep.representative(1))
    phi = (np.eye(16) + s) / 2  # already equivariant (and CPTP: mix of unitaries)
    out = twirl_channel(rep, rep, phi)
    assert frob(out - phi) < 1e-12


def test_channel_twirl_fixes_depolarizing():
    rin = bitflip_rep(2)
    rout = swap_rep()
    # completely depolarizing: rho -> Tr[rho] 1/4, as a superoperator
    eye = np.eye(4, dtype=complex)
    dep = np.outer(eye.reshape(-1), eye.reshape(-1).conj()) / 4
    out = twirl_channel(rin, rout, dep)
    assert frob(out - dep) < 1e-12


def test_channel_twirl_rejects_non_cptp():
    with pytest.raises(NotCPTPError):
        twirl_channel(bitflip_rep(2), swap_rep(), 2.0 * np.eye(16, dtype=complex))


def _loop_twirl_channel(rep_in, rep_out, phi):
    """The per-element channel twirl: sum_g Conj(R_out(g))^dag phi Conj(R_in(g)) / |G|."""
    acc = np.zeros_like(phi)
    for i in range(rep_in.group.order):
        cu = conjugation_superoperator(rep_in.representative(i))
        cv = conjugation_superoperator(rep_out.representative(i))
        acc += dagger(cv) @ phi @ cu
    return acc / rep_in.group.order


def _random_channel(din, dout, n_kraus, seed):
    """Superoperator of a random CPTP map with n_kraus Kraus operators."""
    rng = np.random.default_rng(seed)
    ks = rng.standard_normal((n_kraus, dout, din)) + 1j * rng.standard_normal((n_kraus, dout, din))
    w, v = np.linalg.eigh(np.einsum("kji,kjl->il", ks.conj(), ks))
    ks = ks @ (v / np.sqrt(w)) @ dagger(v)   # sum_k K^dag K = 1
    return sum(np.kron(k, k.conj()) for k in ks)


def _swap_mixture():
    return (np.eye(16) + conjugation_superoperator(swap_matrix())) / 2


def _depolarizing(d):
    eye = np.eye(d, dtype=complex)
    return np.outer(eye.reshape(-1), eye.reshape(-1).conj()) / d


# din != dout in the bitflip(1) cases, so an index-order slip cannot cancel
CHANNEL_CASES = {
    "bitflip2->swap identity": (lambda: bitflip_rep(2), swap_rep, lambda: np.eye(16, dtype=complex)),
    "swap->swap mixture": (swap_rep, swap_rep, _swap_mixture),
    "bitflip2->swap depolarizing": (lambda: bitflip_rep(2), swap_rep, lambda: _depolarizing(4)),
    "bitflip1->swap kraus": (lambda: bitflip_rep(1), swap_rep, lambda: _random_channel(2, 4, 3, 41)),
    "swap->bitflip1 kraus": (swap_rep, lambda: bitflip_rep(1), lambda: _random_channel(4, 2, 3, 42)),
    "perm3 kraus": (lambda: perm_rep_qubits(3), lambda: perm_rep_qubits(3),
                    lambda: _random_channel(8, 8, 3, 43)),
    "perm4 kraus": (lambda: perm_rep_qubits(4), lambda: perm_rep_qubits(4),
                    lambda: _random_channel(16, 16, 3, 44)),
}


@pytest.mark.parametrize("case", list(CHANNEL_CASES))
def test_channel_twirl_matches_the_element_loop(case):
    rin, rout, phi = (make() for make in CHANNEL_CASES[case])
    assert is_cptp(phi, rin.dim, rout.dim)
    got = twirl_channel(rin, rout, phi)
    assert frob(got - _loop_twirl_channel(rin, rout, phi)) <= 1e-12 * max(1.0, frob(phi))


@pytest.mark.parametrize("k_in,k_out", [(2, 2), (1, 2)], ids=["su2x2->su2x2", "su2->su2x2"])
def test_compact_channel_twirl(k_in, k_out):
    su2 = su2_fundamental()
    rin, rout = tensor_power(su2, k_in), tensor_power(su2, k_out)
    din, dout = rin.dim, rout.dim
    phi = _random_channel(din, dout, 3, 45 + k_in)
    out = twirl_channel(rin, rout, phi)
    assert is_cptp(out, din, dout)
    assert frob(twirl_channel(rin, rout, out) - out) <= 1e-10
    # the same seed draws the same SU(2) element in both reps
    for u, v in zip(rin.sample_elements(17, 20), rout.sample_elements(17, 20)):
        residual = frob(conjugation_superoperator(v) @ out - out @ conjugation_superoperator(u))
        assert residual <= 1e-10
    # Haar average over U(2), whose global phase cancels in each conjugation.
    # Every entry of a sampled V^dag phi(U . U^dag) V superoperator has modulus
    # at most 1, so each entry of the mean lies within 5 standard errors.
    n = 4000
    us = haar_unitaries(2, n, np.random.default_rng(46))
    u_in, u_out = linalg.tensor_powers(us, k_in), linalg.tensor_powers(us, k_out)
    cu = np.einsum("nij,nkl->nikjl", u_in, u_in.conj()).reshape(n, din * din, din * din)
    cv = np.einsum("nij,nkl->nikjl", u_out, u_out.conj()).reshape(n, dout * dout, dout * dout)
    mc = (dagger(cv) @ phi @ cu).mean(axis=0)
    assert np.abs(mc - out).max() <= 5 / np.sqrt(n)


def _non_unitary_z2():
    # A^2 = 1, so this is a representation of Z_2, but A is not unitary
    return finite_rep_from_images(make_cyclic(2), [[[1, 1], [0, -1]]], "shear")


def _non_hermitian_su2():
    su2 = su2_fundamental()
    return Representation(su2.source, "lie", 2, "su2-skew", 1j * su2.generator_images)


_NAN_CHANNEL = np.full((16, 16), np.nan)

CHANNEL_INPUT_ERRORS = {
    "text": (lambda: twirl_channel(swap_rep(), swap_rep(), "abc"), ValidationError, "numeric"),
    "nan": (lambda: twirl_channel(swap_rep(), swap_rep(), _NAN_CHANNEL), ValidationError,
            "non-finite"),
    "inf": (lambda: twirl_channel(swap_rep(), swap_rep(), np.diag([np.inf] + [0.0] * 15)),
            ValidationError, "non-finite"),
    "phi shape": (lambda: twirl_channel(bitflip_rep(1), swap_rep(), np.eye(16)),
                  DimensionMismatchError, r"\(16, 4\)"),
    "sources": (lambda: twirl_channel(bitflip_rep(1), perm_rep_qubits(3), np.eye(16)),
                SourceMismatchError, "same group"),
    "flavors": (lambda: twirl_channel(su2_fundamental(), swap_rep(), np.eye(16)),
                SourceMismatchError, "same group"),
    "non-unitary": (lambda: twirl_channel(_non_unitary_z2(), swap_rep(), np.eye(16)),
                    ValidationError, "not unitary"),
    "non-hermitian": (lambda: twirl_channel(su2_fundamental(), _non_hermitian_su2(), np.eye(16)),
                      NotHermitianError, "Hermitian"),
    "choi shape": (lambda: choi_matrix(np.eye(16), 2, 4), DimensionMismatchError,
                   "operator shape"),
    "is_cptp shape": (lambda: is_cptp(np.eye(15), 2, 2), DimensionMismatchError,
                      "operator shape"),
}


@pytest.mark.parametrize("case", list(CHANNEL_INPUT_ERRORS))
def test_channel_twirl_rejects_bad_input_at_the_boundary(case):
    call, error, match = CHANNEL_INPUT_ERRORS[case]
    with pytest.raises(error, match=match) as info:
        call()
    assert not isinstance(info.value, NotCPTPError)


# -- k-design twirl --------------------------------------------------------------

def test_k1_twirl_is_depolarizing():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        o = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        out = k_design_twirl(d, 1, o)
        assert frob(out - np.trace(o) / d * np.eye(d)) < 1e-12


def test_k1_twirl_monte_carlo_cross_check():
    rng = np.random.default_rng(8)
    o = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    n = 10 ** 5
    mc = monte_carlo_k_design_twirl(2, 1, o, n, rng_seed=1)
    exact = k_design_twirl(2, 1, o)
    # 3 significant digits at 1e5 samples
    assert frob(mc - exact) < 5 / np.sqrt(n) * max(frob(o), 1.0)


def test_k2_twirl_fixes_swap():
    s = swap_matrix()
    assert frob(k_design_twirl(2, 2, s) - s) < 1e-12


def test_k2_twirl_of_projector_gram_solve():
    # |00><00| -> (1 + SWAP)/6: Gram [[4,2],[2,4]], b = [1,1], c = (1/6, 1/6)
    o = np.zeros((4, 4), dtype=complex)
    o[0, 0] = 1.0
    out = k_design_twirl(2, 2, o)
    expected = (np.eye(4) + swap_matrix()) / 6
    assert frob(out - expected) < 1e-12


def test_k_design_monte_carlo_agreement():
    rng = np.random.default_rng(9)
    n = 10 ** 5
    for k in (2, 3):
        o = random_hermitian(2 ** k, rng)
        exact = k_design_twirl(2, k, o)
        mc = monte_carlo_k_design_twirl(2, k, o, n, rng_seed=k)
        assert frob(mc - exact) < 5 / np.sqrt(n) * max(frob(o), 1.0)


def test_k_design_rank_deficient_d_less_than_k():
    # d=2, k=3: permutation operators are linearly dependent; pinv must cope
    rng = np.random.default_rng(10)
    o = random_hermitian(8, rng)
    out = k_design_twirl(2, 3, o)
    t2 = tensor_power(su2_fundamental(), 3)
    for u in t2.sample_elements(11, 10):
        assert frob(comm(out, u)) < 1e-8


def test_k_design_dimension_cap():
    with pytest.raises(DimensionTooLargeError):
        k_design_twirl(2, 5, np.eye(32))
    with pytest.raises(DimensionTooLargeError):
        k_design_twirl(5, 3, np.eye(125))


# -- haar sampling ----------------------------------------------------------------

def test_haar_d1_uniform_phase():
    u = haar_sample_unitary(1, 3)
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1) < 1e-12


def test_haar_deterministic_per_seed():
    assert np.array_equal(haar_sample_unitary(4, 5), haar_sample_unitary(4, 5))
    assert not np.array_equal(haar_sample_unitary(4, 5), haar_sample_unitary(4, 6))


def test_haar_mean_conjugated_z_vanishes():
    rng = np.random.default_rng(11)
    n = 10 ** 5
    us = haar_unitaries(2, n, rng)
    acc = (us @ Z @ us.conj().swapaxes(1, 2)).sum(axis=0)
    assert frob(acc / n) < 3 / np.sqrt(n)


def test_haar_left_invariance_ks():
    # distribution of Tr[V U] for fixed V matches distribution of Tr[U]
    rng = np.random.default_rng(12)
    v = haar_unitary(2, rng)
    n = 10 ** 4
    # the same draws as 2n successive haar_unitary calls after v
    t_plain = np.trace(haar_unitaries(2, n, rng), axis1=1, axis2=2)
    t_left = np.trace(v @ haar_unitaries(2, n, rng), axis1=1, axis2=2)
    for part in (np.real, np.imag):
        _, pvalue = stats.ks_2samp(part(t_plain), part(t_left))
        assert pvalue > 0.01


def _gaussian(d, rng):
    """The complex Gaussian one Haar draw starts from, in the sampler's rng order."""
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)


def _reference_haar(d, rng):
    """Per-sample Haar draw by the LAPACK route: QR of a complex Gaussian with
    Mezzadri's phase fix, so R's diagonal is made positive real."""
    q, r = np.linalg.qr(_gaussian(d, rng))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _reference_monte_carlo_twirl(d, k, o, n_samples, rng_seed, draw=haar_unitary):
    """Per-sample sampling loop, each power a ``kron_all`` chain, summed in
    chunks of the same size by the kernel.

    ``draw(d, rng)`` makes one unitary: ``haar_unitary`` for the bit-identity
    check, ``_reference_haar`` for the LAPACK-route tolerance check."""
    rng = np.random.default_rng(rng_seed)
    chunk = max(1, linalg._CHUNK_BYTES // (d ** k * d ** k * 16))
    acc = np.zeros((d ** k, d ** k), dtype=complex)
    done = 0
    while done < n_samples:
        nb = min(chunk, n_samples - done)
        uk = np.stack([linalg.kron_all(*[draw(d, rng)] * k) for _ in range(nb)])
        acc += linalg.conjugation_sum(uk, o)
        done += nb
    return acc / n_samples


@pytest.mark.parametrize("d,k", [(2, 2), (4, 1), (2, 3), (3, 2)])
def test_monte_carlo_twirl_is_bit_identical_to_per_sample_sampling(d, k):
    # chunks of 512 at (2, 2) and (4, 1), 128 at (2, 3), 101 at (3, 2): 1100
    # crosses chunk boundaries, and 4500 crosses a sampling block of 8 chunks
    # and ends on a partial chunk
    rng = np.random.default_rng(31)
    o = random_hermitian(d ** k, rng)
    for n_samples in (1, 100, 1100, 4500):
        got = monte_carlo_k_design_twirl(d, k, o, n_samples, rng_seed=5)
        np.testing.assert_array_equal(got, _reference_monte_carlo_twirl(d, k, o, n_samples, 5))


@pytest.mark.parametrize("d,k", [(2, 2), (4, 1), (2, 3)])
def test_monte_carlo_twirl_matches_the_lapack_route(d, k):
    # the same Gaussian draws orthonormalised by LAPACK's Householder QR
    rng = np.random.default_rng(32)
    o = random_hermitian(d ** k, rng)
    got = monte_carlo_k_design_twirl(d, k, o, 1100, rng_seed=5)
    want = _reference_monte_carlo_twirl(d, k, o, 1100, 5, draw=_reference_haar)
    assert frob(got - want) <= 1e-13 * max(1.0, frob(o))


@pytest.mark.parametrize("d,k", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_conjugation_sum_matches_the_loop_and_the_einsum(d, k):
    rng = np.random.default_rng(50 + 10 * d + k)
    stack = linalg.tensor_powers(haar_unitaries(d, 300, rng), k)
    o = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
    got = linalg.conjugation_sum(stack, o)
    loop = sum(a @ o @ dagger(a) for a in stack)
    einsum = np.einsum("nij,jk,nlk->il", stack, o, stack.conj())
    # the sum grows with the stack, so its mean (the twirl) carries the bound
    bound = 1e-12 * max(1.0, frob(o)) * len(stack)
    assert np.abs(got - loop).max() <= bound
    assert np.abs(got - einsum).max() <= bound


def test_tensor_powers_match_kron_chains():
    for d, n in ((3, 20), (2, 1), (2, 7), (2, 513)):
        us = haar_unitaries(d, n, np.random.default_rng(51))
        for k in (1, 2, 3):
            want = np.stack([linalg.kron_all(*([u] * k)) for u in us])
            assert linalg.tensor_powers(us, k).tobytes() == want.tobytes()


@pytest.mark.parametrize("d,n", [(1, 5), (2, 1), (2, 7), (3, 513), (4, 40)])
def test_sample_last_stacks_are_the_sample_first_ones(d, n):
    last = linalg.haar_unitaries_last(d, n, np.random.default_rng(53))
    assert last.shape == (d, d, n)
    first = haar_unitaries(d, n, np.random.default_rng(53))
    assert first.flags.c_contiguous and first.tobytes() == last.transpose(2, 0, 1).tobytes()
    for k in (1, 2, 3):
        powers = linalg.tensor_powers(first, k)
        assert powers.flags.c_contiguous
        assert powers.tobytes() == linalg.tensor_powers_last(last, k).transpose(2, 0, 1).tobytes()


_HAAR_DIGESTS = """
import hashlib, numpy as np
from equirep.linalg import haar_unitaries
for d in (2, 3, 4, 8):
    print(d, hashlib.sha256(haar_unitaries(d, 700, np.random.default_rng(d)).tobytes()).hexdigest())
"""


def test_haar_draws_do_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE picks OpenBLAS's kernel for the child process alone;
    # the Monte Carlo twirl is left out, since its GEMMs are the kernel's
    with contextlib.redirect_stdout(io.StringIO()) as default:
        exec(_HAAR_DIGESTS, {})
    src = str(pathlib.Path(linalg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Haswell"}
    haswell = subprocess.run([sys.executable, "-c", _HAAR_DIGESTS], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
    assert len(default.getvalue().splitlines()) == 4
    assert haswell.stdout == default.getvalue()


def _uncached_k_design_twirl(d, k, o):
    """The permutation-Gram solve, with its constants rebuilt on every call."""
    perms = np.array([perm_matrix_on_tensor(p, d).reshape(-1)
                      for p in itertools.permutations(range(k))])
    gram = perms.conj() @ perms.T
    coeff = np.linalg.pinv(gram, rcond=1e-10) @ (perms.conj() @ o.reshape(-1))
    return (coeff @ perms).reshape(d ** k, d ** k)


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_k_design_twirl_with_cached_constants_keeps_every_bit(d, k):
    rng = np.random.default_rng(52)
    for _ in range(3):
        o = rng.standard_normal((d ** k, d ** k)) + 1j * rng.standard_normal((d ** k, d ** k))
        assert k_design_twirl(d, k, o).tobytes() == _uncached_k_design_twirl(d, k, o).tobytes()


@pytest.mark.parametrize("n", [1, 7, 512, 1100])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_haar_unitaries_are_bit_identical_to_successive_draws(d, n):
    # 1100 crosses the 512-sample chunk boundary of the Monte Carlo twirl at d^k = 4
    got = haar_unitaries(d, n, np.random.default_rng(40 + d))
    assert got.shape == (n, d, d) and got.dtype == np.complex128
    rng = np.random.default_rng(40 + d)
    assert got.tobytes() == np.stack([haar_unitary(d, rng) for _ in range(n)]).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
def test_haar_unitaries_match_the_lapack_route(d):
    n = 300
    got = haar_unitaries(d, n, np.random.default_rng(60 + d))
    rng = np.random.default_rng(60 + d)
    zs = np.stack([_gaussian(d, rng) for _ in range(n)])
    rng = np.random.default_rng(60 + d)
    want = np.stack([_reference_haar(d, rng) for _ in range(n)])
    err = np.linalg.norm(got - want, axis=(1, 2))
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.linalg.cond(zs)))
    gram_err = np.linalg.norm(dagger(got) @ got - np.eye(d), axis=(1, 2))
    assert gram_err.max() <= 1e-14 * d


def test_haar_trace_moments_are_diaconis_shahshahani():
    # E|Tr U|^(2j) = j! for j <= d on U(d) (Diaconis & Shahshahani 1994), a
    # property of the Haar measure that no particular QR enters
    n = 10 ** 5
    for d in (1, 2, 3, 4):
        t = np.abs(np.trace(haar_unitaries(d, n, np.random.default_rng(70 + d)),
                            axis1=1, axis2=2)) ** 2
        for j in range(1, min(d, 3) + 1):
            x = t ** j
            stderr = x.std(ddof=1) / np.sqrt(n)
            # the rounding floor covers d = 1, where |Tr U|^2 = 1 and stderr ~ 0
            assert abs(x.mean() - math.factorial(j)) <= 5 * stderr + 1e-12, (d, j)


@pytest.mark.parametrize("kwargs", [
    {"n_samples": -3}, {"n_samples": 0}, {"n_samples": 5.5}, {"d": 0}, {"k": 0},
    {"rng_seed": -1}, {"rng_seed": 1.5},
], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
def test_monte_carlo_twirl_rejects_bad_integers(kwargs):
    args = {"d": 2, "k": 1, "n_samples": 10, "rng_seed": 0, **kwargs}
    o = np.eye(max(args["d"], 1) ** max(args["k"], 1), dtype=complex)
    with pytest.raises(InvalidParameterError):
        monte_carlo_k_design_twirl(args["d"], args["k"], o, args["n_samples"],
                                   rng_seed=args["rng_seed"])


def test_monte_carlo_twirl_rejects_wrong_operator_shape():
    with pytest.raises(DimensionMismatchError):
        monte_carlo_k_design_twirl(2, 2, np.eye(2), 10)


@pytest.mark.parametrize("d", [0, 2.0])
def test_haar_sample_unitary_rejects_bad_dimension(d):
    with pytest.raises(InvalidParameterError):
        haar_sample_unitary(d, 0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_haar_sample_unitary_rejects_bad_seed(seed):
    with pytest.raises(InvalidParameterError):
        haar_sample_unitary(2, seed)


@pytest.mark.parametrize("d,k", [(2, 0), (-2, 1), (2.0, 1), (2, -1), (0, 2)],
                         ids=["k=0", "d=-2", "d=2.0", "k=-1", "d=0"])
def test_k_design_twirl_rejects_bad_integers(d, k):
    with pytest.raises(InvalidParameterError):
        k_design_twirl(d, k, np.eye(2))


_BAD_OPERATORS = {
    "nan": lambda dim: np.full((dim, dim), np.nan),
    "inf": lambda dim: np.diag([np.inf] + [0.0] * (dim - 1)),
    "text": lambda dim: "abc",
    "object": lambda dim: [[None] * dim] * dim,
}


@pytest.mark.parametrize("name", sorted(_BAD_OPERATORS))
def test_k_design_twirl_rejects_bad_operators(name):
    with pytest.raises(ValidationError):
        k_design_twirl(2, 2, _BAD_OPERATORS[name](4))


@pytest.mark.parametrize("name", sorted(_BAD_OPERATORS))
def test_monte_carlo_twirl_rejects_bad_operators(name):
    with pytest.raises(ValidationError):
        monte_carlo_k_design_twirl(2, 2, _BAD_OPERATORS[name](4), 10)


# -- average twirl against the per-element loop ----------------------------------

def _loop_average_twirl(rep, o):
    """The per-element average: sum_g R(g) o R(g)^dag / |G|, one element at a time."""
    acc = np.zeros_like(o)
    for i in range(rep.group.order):
        r = rep.representative(i)
        acc += r @ o @ dagger(r)
    return acc / rep.group.order


def _haar_conjugated(rep, seed):
    u = haar_sample_unitary(rep.dim, seed)
    return finite_rep_from_images(
        rep.group, [u @ k @ dagger(u) for k in rep.generator_images], rep.name + "~haar")


AVERAGE_CASES = {
    "swap": swap_rep, "perm4": lambda: perm_rep_qubits(4), "perm5": lambda: perm_rep_qubits(5),
    "regular-S4": lambda: left_regular_rep(make_symmetric(4)),
    "regular-D6": lambda: left_regular_rep(make_dihedral(6)),
    "regular-Z64": lambda: left_regular_rep(make_cyclic(64)),
    "perm4~haar": lambda: _haar_conjugated(perm_rep_qubits(4), 13),
    "perm5~haar": lambda: _haar_conjugated(perm_rep_qubits(5), 14),
    "regular-Z64~haar": lambda: _haar_conjugated(left_regular_rep(make_cyclic(64)), 15),
}


@pytest.mark.parametrize("name", list(AVERAGE_CASES))
def test_average_twirl_matches_the_per_element_loop(name):
    rep = AVERAGE_CASES[name]()
    ctx = twirl_context(rep, "average")
    # permutation reps take the orbit path; the conjugated ones the dense chunked sum
    assert (ctx.orbits is None) == name.endswith("~haar")
    if name in ("perm5~haar", "regular-Z64~haar"):  # these cross a chunk boundary
        assert rep.group.order * rep.dim ** 2 * 16 > linalg._CHUNK_BYTES
    rng = np.random.default_rng(17)
    o = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    got = twirl_operator(ctx, o)
    assert np.abs(got - _loop_average_twirl(rep, o)).max() <= 1e-12


# -- the orbit path for permutation representations ------------------------------

ORBIT_CASES = {
    **{name: make for name, make in AVERAGE_CASES.items() if not name.endswith("~haar")},
    "translation(4)": lambda: translation_rep(4),
    "bitflip(2)": lambda: bitflip_rep(2),
    "trivial-Z12": lambda: trivial_rep(make_cyclic(12), 1),
    "perm3(+)regular-S3": lambda: direct_sum(perm_rep_qubits(3),
                                             left_regular_rep(make_symmetric(3))),
    "dual(perm3)(x)perm3": lambda: tensor_product(dual(perm_rep_qubits(3)), perm_rep_qubits(3)),
}


@pytest.mark.parametrize("name", list(ORBIT_CASES))
def test_orbit_twirl_matches_the_loop_and_counts_the_commutant(name):
    rep = ORBIT_CASES[name]()
    ctx = twirl_context(rep)
    assert ctx.orbits is not None
    # the orbital matrices have disjoint supports, so they are a basis of the commutant
    assert len(ctx.orbits.sizes) == commutant_basis(rep).dim
    rng = np.random.default_rng(18)
    o = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    assert np.abs(twirl_operator(ctx, o) - _loop_average_twirl(rep, o)).max() <= 1e-12


@pytest.mark.parametrize("make", [dihedral_rep_s3, _signed_swap,
                                  lambda: _haar_conjugated(swap_rep(), 16)],
                         ids=["dihedral-S3", "signed-swap", "swap~haar"])
def test_non_permutation_reps_take_the_dense_average(make):
    rep = make()
    ctx = twirl_context(rep)
    assert ctx.mode == "average" and ctx.orbits is None
    o = random_hermitian(rep.dim, np.random.default_rng(19))
    assert np.abs(twirl_operator(ctx, o) - _loop_average_twirl(rep, o)).max() <= 1e-12


def test_orbit_path_reads_no_representatives(monkeypatch):
    rep = left_regular_rep(make_cyclic(256))   # above EAGER_ORDER: no stack built yet
    monkeypatch.setattr(Representation, "representatives",
                        lambda self: pytest.fail("the orbit path built the element stack"))
    ctx = twirl_context(rep)
    o = random_hermitian(256, np.random.default_rng(20))
    # the twirl under Z_256 shifts is the mean along each cyclic diagonal j - i = c
    t = np.arange(256)
    diagonal_means = o[t, (t + t[:, None]) % 256].mean(axis=1)
    want = diagonal_means[(t - t[:, None]) % 256]
    assert np.abs(twirl_operator(ctx, o) - want).max() <= 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_channel_twirl_of_permutations_reads_no_representatives(monkeypatch, n):
    rep = perm_rep_qubits(n)
    phi = _random_channel(rep.dim, rep.dim, 3, 21 + n)
    monkeypatch.setattr(Representation, "representatives",
                        lambda self: pytest.fail("the channel twirl built an element stack"))
    out = twirl_channel(rep, rep, phi)
    monkeypatch.undo()
    assert np.abs(out - _loop_twirl_channel(rep, rep, phi)).max() <= 1e-12


def _closure(gens, n):
    """Every product of the permutations ``gens`` of range(n), as tuples."""
    seen, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        frontier = [tuple(g[i] for i in h) for h in frontier for g in gens]
        frontier = [h for h in frontier if h not in seen]
        seen.update(frontier)
        if len(seen) > 64:
            return None
    return sorted(seen)


@st.composite
def _permutation_groups(draw):
    """A permutation group of order <= 64 on <= 6 points, with its permutation matrices."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    elements = _closure(gens, n) or _closure(gens[:1], n)  # one generator: order <= 6
    return np.array([np.eye(n)[:, list(p)] for p in elements], dtype=complex)


@settings(max_examples=20, deadline=None)
@given(mats=_permutation_groups(), seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_twirl_on_random_permutation_groups(mats, seed):
    rep = finite_rep_from_images(group_from_unitaries(mats), mats, "perm-group")
    ctx = twirl_context(rep)
    assert ctx.orbits is not None
    assert len(ctx.orbits.sizes) == commutant_basis(rep).dim
    rng = np.random.default_rng(seed)
    o = rng.standard_normal((rep.dim, rep.dim)) + 1j * rng.standard_normal((rep.dim, rep.dim))
    once = twirl_operator(ctx, o)
    assert np.abs(once - _loop_average_twirl(rep, o)).max() <= 1e-12
    assert np.abs(twirl_operator(ctx, once) - once).max() <= 1e-12
    for k in rep.generator_images:
        assert frob(comm(once, k)) <= 1e-12 * max(1.0, frob(o))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_BAD_OPERATORS))
@pytest.mark.parametrize("path", list(TWIRL_CONTEXTS))
def test_twirl_operator_rejects_bad_operators(path, name):
    with pytest.raises(ValidationError):
        twirl_operator(TWIRL_CONTEXTS[path](), _BAD_OPERATORS[name](4))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("path", list(TWIRL_CONTEXTS))
def test_twirl_operator_finds_one_non_finite_entry_anywhere(path):
    # the check reads the small vector each path forms, not o itself
    ctx = TWIRL_CONTEXTS[path]()
    for i, j in itertools.product(range(4), repeat=2):
        o = np.zeros((4, 4), dtype=complex)
        o[i, j] = complex(0, np.inf) if (i + j) % 2 else np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            twirl_operator(ctx, o)
