import itertools
import json

import numpy as np
import pytest

from equirep import linalg, representations, serialize
from equirep.errors import DimensionMismatchError, SourceMismatchError, ValidationError
from equirep.groups import make_cyclic, make_dihedral, make_symmetric
from equirep.linalg import I2, X, Y, Z, comm, dagger, frob, haar_unitary, hs_inner, kron, \
    vectorize
from equirep.representations import (
    adjoint_action,
    bitflip_rep,
    dihedral_rep_s3,
    direct_sum,
    dual,
    finite_rep_from_images,
    left_regular_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_matrix,
    swap_rep,
    tensor_power,
    tensor_product,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
    verify_homomorphism,
)

SIGMA_MINUS = (X + 1j * Y) / 2   # |0><1|
SIGMA_PLUS = (X - 1j * Y) / 2    # |1><0|


def all_unitary(rep, tol=1e-10):
    return all(frob(dagger(m) @ m - np.eye(rep.dim)) < tol
               for m in rep.representatives())


# -- constructors and their stated examples ---------------------------------

def test_trivial_rep_finite():
    rep = trivial_rep(make_cyclic(2), 3)
    for m in rep.representatives():
        assert np.allclose(m, np.eye(3))


def test_trivial_rep_lie_images_zero():
    rep = trivial_rep(su2_fundamental().algebra, 2)
    for h in rep.generator_images:
        assert frob(h) == 0


def test_perm_rep_transposition_is_swap():
    rep = perm_rep_qubits(3)
    elems = list(itertools.permutations(range(3)))
    t12 = elems.index((1, 0, 2))
    assert frob(rep.representative(t12) - swap_matrix(3, 0, 1)) < 1e-14


def test_perm_rep_action_on_basis():
    # P_(12) |i1 i2 i3> = |i2 i1 i3>
    rep = perm_rep_qubits(3)
    elems = list(itertools.permutations(range(3)))
    p = rep.representative(elems.index((1, 0, 2)))
    for i1, i2, i3 in itertools.product(range(2), repeat=3):
        src = np.zeros(8)
        src[(i1 << 2) | (i2 << 1) | i3] = 1
        dst = np.zeros(8)
        dst[(i2 << 2) | (i1 << 1) | i3] = 1
        assert np.allclose(p @ src, dst)


def test_perm_rep_identity_and_homomorphism():
    rep = perm_rep_qubits(3)
    assert np.allclose(rep.representative(rep.group.identity), np.eye(8))
    elems = list(itertools.permutations(range(3)))
    t12, t23 = elems.index((1, 0, 2)), elems.index((0, 2, 1))
    prod = rep.group.multiply(t12, t23)
    assert frob(rep.representative(t12) @ rep.representative(t23)
                - rep.representative(prod)) < 1e-12
    assert verify_homomorphism(rep) < 1e-10


def test_bitflip_rep_examples():
    r1 = bitflip_rep(1)
    assert frob(r1.representative(1) - X) < 1e-14
    r2 = bitflip_rep(2)
    assert frob(r2.representative(1) - kron(X, X)) < 1e-14
    assert frob(r2.representative(1) @ r2.representative(1) - np.eye(4)) < 1e-12


def test_swap_rep_involution():
    rep = swap_rep()
    s = rep.representative(1)
    assert frob(s - swap_matrix()) < 1e-14
    assert frob(s @ s - np.eye(4)) < 1e-12


def test_dihedral_rep_s3_generator_images():
    rep = dihedral_rep_s3()
    elems = list(itertools.permutations(range(3)))
    w = np.exp(2j * np.pi / 3)
    r123 = rep.representative(elems.index((1, 2, 0)))
    r12 = rep.representative(elems.index((1, 0, 2)))
    assert frob(r123 - np.diag([w, w.conjugate()])) < 1e-12
    assert frob(r12 - X) < 1e-12
    # cube of the rotation, square of the reflection
    assert frob(np.linalg.matrix_power(r123, 3) - I2) < 1e-12
    assert frob(r12 @ r12 - I2) < 1e-12
    # conjugating the rotation by the reflection inverts it
    assert frob(r12 @ r123 @ r12 - np.diag([w.conjugate(), w])) < 1e-12
    assert verify_homomorphism(rep) < 1e-10


def test_su2_fundamental_images():
    rep = su2_fundamental()
    assert frob(rep.generator_images[2] - Z / 2) < 1e-14
    assert verify_homomorphism(rep) < 1e-10


def test_su2_sampled_elements_are_cayley_klein():
    # sampled element = c0 1 + i(c1 X + c2 Y + c3 Z) with unit real 4-vector
    rep = su2_fundamental()
    for u in rep.sample_elements(3, 5):
        c0 = np.trace(u).real / 2
        cs = [np.trace(dagger(p) @ u).imag / 2 for p in (X, Y, Z)]
        vec = np.array([c0] + cs)
        assert abs(vec @ vec - 1) < 1e-9
        recon = c0 * I2 + 1j * (cs[0] * X + cs[1] * Y + cs[2] * Z)
        assert frob(u - recon) < 1e-9


def test_exp_of_zero_combination():
    rep = su2_fundamental()
    h = sum(0.0 * g for g in rep.generator_images)
    from equirep.linalg import exp_unitary
    assert frob(exp_unitary(h, 1.0) - I2) < 1e-14


def test_tensor_power_lie_images():
    t2 = tensor_power(su2_fundamental(), 2)
    expected = kron(Z / 2, I2) + kron(I2, Z / 2)
    assert frob(t2.generator_images[2] - expected) < 1e-13
    assert verify_homomorphism(t2) < 1e-10


def _kron_chain_lie_images(r, k):
    """Slot-by-slot Lie images: sum over slots of 1 x .. x h x .. x 1 by kron chains."""
    eye = np.eye(r.dim, dtype=complex)
    images = np.zeros((len(r.generator_images), r.dim ** k, r.dim ** k), dtype=complex)
    for total, h in zip(images, r.generator_images):
        for slot in range(k):
            factors = [eye] * k
            factors[slot] = h
            total += linalg.kron_all(*factors)
    return images


def test_tensor_power_lie_images_keep_the_kron_chain_bits():
    u = haar_unitary(3, np.random.default_rng(14))
    u3 = unitary_algebra_rep(3)
    dense = representations.Representation(
        u3.source, "lie", 3, "u3~haar", [u @ h @ dagger(u) for h in u3.generator_images])
    for rep, k in [(su2_fundamental(), k) for k in (2, 3, 4, 5)] + [(dense, 2), (dense, 3)]:
        got = tensor_power(rep, k).generator_images
        assert got.tobytes() == _kron_chain_lie_images(rep, k).tobytes()


def test_tensor_power_k1_is_same_rep():
    rep = su2_fundamental()
    assert tensor_power(rep, 1) is rep


def test_tensor_power_finite_kronecker_square():
    r2 = tensor_power(bitflip_rep(1), 2)
    assert frob(r2.representative(1) - kron(X, X)) < 1e-13


def test_tensor_power_leibniz_on_vectors():
    rng = np.random.default_rng(0)
    base = su2_fundamental()
    t2 = tensor_power(base, 2)
    for idx in range(3):
        h1 = base.generator_images[idx]
        h2 = t2.generator_images[idx]
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = h2 @ np.kron(v, w)
        rhs = np.kron(h1 @ v, w) + np.kron(v, h1 @ w)
        assert np.linalg.norm(lhs - rhs) < 1e-12


def test_tensor_power_su2_commutes_with_swap():
    t2 = tensor_power(su2_fundamental(), 2)
    s = swap_matrix()
    for u in t2.sample_elements(11, 20):
        assert frob(comm(u, s)) < 1e-9


def test_direct_sum_block_structure():
    r1 = bitflip_rep(1)
    r2 = trivial_rep(r1.group, 1)
    s = direct_sum(r1, r2)
    m = s.representative(1)
    assert m.shape == (3, 3)
    assert frob(m[:2, :2] - X) < 1e-14
    assert abs(m[2, 2] - 1) < 1e-14
    assert frob(m[:2, 2:]) == 0 and frob(m[2:, :2]) == 0


def test_direct_sum_source_mismatch():
    with pytest.raises(SourceMismatchError):
        direct_sum(bitflip_rep(1), perm_rep_qubits(3))
    # same abstract table through different constructors is accepted
    assert direct_sum(bitflip_rep(1), perm_rep_qubits(2)).dim == 6


def test_dual_of_trivial_is_trivial():
    rep = trivial_rep(make_cyclic(3), 2)
    d = dual(rep)
    for m in d.representatives():
        assert np.allclose(m, np.eye(2))


def test_dual_satisfies_homomorphism():
    for rep in (dihedral_rep_s3(), perm_rep_qubits(2)):
        assert verify_homomorphism(dual(rep)) < 1e-10
    lie = su2_fundamental()
    assert verify_homomorphism(dual(lie)) < 1e-10


def _haar_conjugated_perm3():
    rep, u = perm_rep_qubits(3), haar_unitary(8, np.random.default_rng(21))
    return finite_rep_from_images(rep.group, u @ rep.generator_images @ dagger(u), "perm3~haar")


@pytest.mark.parametrize("make", [
    lambda: perm_rep_qubits(3), dihedral_rep_s3, lambda: left_regular_rep(make_symmetric(4)),
    lambda: left_regular_rep(make_cyclic(256)), lambda: translation_rep(4),
    lambda: bitflip_rep(3), _haar_conjugated_perm3,
], ids=["perm3", "dihedral-S3", "regular-S4", "regular-Z256", "translation4", "bitflip3",
        "perm3~haar"])
def test_dual_images_are_the_inverse_word_products_transposed(make):
    rep = make()
    g = rep.group
    want = np.array([rep.representative(g.inverse(gi)).T for gi in g.generators])
    assert np.abs(dual(rep).generator_images - want).max() <= 1e-15


def test_dual_of_a_non_unitary_rep_is_refused():
    shear = finite_rep_from_images(make_cyclic(2), [[[1.0, 1.0], [0.0, -1.0]]], "shear")
    with pytest.raises(ValidationError, match="not unitary"):
        dual(shear)
    su2 = su2_fundamental()
    with pytest.raises(ValidationError, match="Hermitian"):
        dual(representations.Representation(su2.source, "lie", 2, "non-hermitian",
                                             su2.generator_images + SIGMA_MINUS))


def test_adjoint_action_z_generator_ladder_eigenvalue():
    # image of the Z generator acting on vec(sigma-): [Z/2, sigma-] = +sigma-
    ad = adjoint_action(su2_fundamental())
    img_z = ad.generator_images[2]
    v = vectorize(SIGMA_MINUS)
    assert np.linalg.norm(img_z @ v - v) < 1e-12
    # and [Z/2, sigma+] = -sigma+
    w = vectorize(SIGMA_PLUS)
    assert np.linalg.norm(img_z @ w + w) < 1e-12


def test_adjoint_action_matches_conjugation():
    rep = swap_rep()
    ad = adjoint_action(rep)
    s = rep.representative(1)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.linalg.norm(
        ad.representative(1) @ vectorize(a) - vectorize(s @ a @ dagger(s))) < 1e-12


def test_adjoint_action_preserves_hs_inner():
    rep = tensor_power(su2_fundamental(), 2)
    rng = np.random.default_rng(2)
    for u in rep.sample_elements(5, 5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lhs = hs_inner(u @ a @ dagger(u), u @ b @ dagger(u))
        assert abs(lhs - hs_inner(a, b)) < 1e-9


def test_tensor_product_lie_leibniz_on_vectors():
    rng = np.random.default_rng(3)
    su2 = su2_fundamental()
    for r, s in [(su2, tensor_power(su2, 2)), (dual(su2), su2)]:
        t = tensor_product(r, s)
        assert (t.dim, t.name) == (r.dim * s.dim, f"{r.name}(x){s.name}")
        for h, a, b in zip(t.generator_images, r.generator_images, s.generator_images):
            v = rng.standard_normal(r.dim) + 1j * rng.standard_normal(r.dim)
            w = rng.standard_normal(s.dim) + 1j * rng.standard_normal(s.dim)
            want = np.kron(a @ v, w) + np.kron(v, b @ w)
            assert np.linalg.norm(h @ np.kron(v, w) - want) < 1e-12


def test_tensor_product_finite_representatives_are_krons():
    # the same abstract S_3 through two constructors: dims 2 and 8
    for r, s in [(dihedral_rep_s3(), perm_rep_qubits(3)), (bitflip_rep(1), swap_rep())]:
        t = tensor_product(r, s)
        for g in range(r.group.order):
            assert frob(t.representative(g)
                        - np.kron(r.representative(g), s.representative(g))) < 1e-12


@pytest.mark.parametrize("r,s", [(bitflip_rep(1), perm_rep_qubits(3)),
                                 (su2_fundamental(), swap_rep()),
                                 (su2_fundamental(), unitary_algebra_rep(2))],
                         ids=["z2-s3", "lie-finite", "su2-u2"])
def test_tensor_product_source_mismatch(r, s):
    with pytest.raises(SourceMismatchError):
        tensor_product(r, s)


@pytest.mark.parametrize("rep", [su2_fundamental(), tensor_power(su2_fundamental(), 2),
                                 swap_rep(), dihedral_rep_s3(), perm_rep_qubits(3)],
                         ids=["su2", "su2x2", "swap", "dihedral-s3", "perm3"])
def test_adjoint_action_images_equal_the_superoperators(rep):
    # tensor_product(r, dual(r)) against the superoperators it replaced; the
    # signs of some zeros differ, so values are compared, not bytes
    lift = (linalg.conjugation_superoperator if rep.flavor == "finite"
            else linalg.commutator_superoperator)
    ad = adjoint_action(rep)
    assert ad.name == f"ad[{rep.name}]"
    assert np.array_equal(ad.generator_images,
                          np.array([lift(m) for m in rep.generator_images]))


def test_left_regular_z2_is_x():
    rep = left_regular_rep(make_cyclic(2))
    assert frob(rep.representative(1) - X) < 1e-14
    assert frob(rep.representative(0) - I2) < 1e-14


def test_left_regular_z3_shift():
    rep = left_regular_rep(make_cyclic(3))
    l1 = rep.representative(1)
    shift = np.zeros((3, 3), dtype=complex)
    for g in range(3):
        shift[(1 + g) % 3, g] = 1
    assert frob(l1 - shift) < 1e-14
    assert frob(np.linalg.matrix_power(l1, 3) - np.eye(3)) < 1e-12


def test_left_regular_permutation_matrices():
    rep = left_regular_rep(make_symmetric(3))
    for m in rep.representatives():
        assert np.allclose(m @ m.conj().T, np.eye(6))
        assert np.allclose(np.abs(m.sum(axis=0)), 1)
    assert verify_homomorphism(rep) < 1e-12


def test_translation_rep_commutes_with_ring_hamiltonian():
    from equirep.tasks import heisenberg_xxx
    rep = translation_rep(4)
    h = heisenberg_xxx(4, periodic=True)
    for m in rep.representatives():
        assert frob(comm(h, m)) < 1e-10
    assert verify_homomorphism(rep) < 1e-12


def test_unitary_algebra_rep_closure():
    rep = unitary_algebra_rep(3)
    assert rep.algebra.dim == 9
    assert verify_homomorphism(rep) < 1e-9


def test_perm_rep_tensor_qutrits():
    from equirep.representations import perm_rep_tensor
    rep = perm_rep_tensor(2, 3)
    assert rep.dim == 9
    assert verify_homomorphism(rep) < 1e-12
    s = rep.representative(1)  # the transposition
    v = np.zeros(9)
    v[1] = 1.0          # |0 1>
    w = np.zeros(9)
    w[3] = 1.0          # |1 0>
    assert np.allclose(s @ v, w)


def test_direct_sum_lie_flavor():
    r = su2_fundamental()
    s = direct_sum(r, trivial_rep(r.source, 1))
    assert s.dim == 3
    assert verify_homomorphism(s) < 1e-10
    assert frob(s.generator_images[2] - np.diag([0.5, -0.5, 0.0])) < 1e-13


def test_left_regular_order_cap():
    import pytest as _pytest
    from equirep.errors import InvalidParameterError
    big = make_cyclic(513)
    with _pytest.raises(InvalidParameterError):
        left_regular_rep(big)


# -- invariants --------------------------------------------------------------

@pytest.mark.parametrize("rep", [
    perm_rep_qubits(2), perm_rep_qubits(3), bitflip_rep(2), swap_rep(),
    dihedral_rep_s3(), left_regular_rep(make_cyclic(5)),
])
def test_finite_representatives_unitary(rep):
    assert all_unitary(rep)


def test_perturbed_representative_detected():
    rep = dihedral_rep_s3()
    images = [m.copy() for m in rep.generator_images]
    images[0] = np.exp(1e-3j) * images[0]  # still unitary, no longer a homomorphism
    from equirep.representations import Representation
    bad = Representation(rep.source, "finite", 2, "perturbed", generator_images=images)
    assert verify_homomorphism(bad) >= 1e-4


def test_trivial_rep_residual_exactly_zero():
    assert verify_homomorphism(trivial_rep(make_cyclic(4), 3)) == 0.0


def test_dual_dual_equivalent_to_original():
    from equirep.decompose import find_intertwiner
    for rep in (dihedral_rep_s3(), perm_rep_qubits(2), su2_fundamental(),
                tensor_power(su2_fundamental(), 2)):
        dd = dual(dual(rep))
        assert find_intertwiner(rep, dd).verdict == "equivalent"


# -- serialization ------------------------------------------------------------

@pytest.mark.parametrize("rep", [swap_rep(), dihedral_rep_s3(), su2_fundamental()])
def test_rep_spec_round_trip(rep):
    spec = serialize.rep_to_spec(rep)
    text = serialize.dumps_report(spec)
    back = serialize.rep_from_spec(json.loads(text))
    assert back.dim == rep.dim
    assert back.flavor == rep.flavor
    if rep.flavor == "finite":
        for g in rep.group.generators:
            assert np.array_equal(back.representative(g), rep.representative(g))
    else:
        for a, b in zip(back.generator_images, rep.generator_images):
            assert np.array_equal(a, b)


def test_rep_spec_rejects_corrupted_matrices():
    spec = serialize.rep_to_spec(swap_rep())
    spec["matrices"][0][0][1][0] = 0.35  # break unitarity/homomorphism
    with pytest.raises(ValidationError):
        serialize.rep_from_spec(spec)


def test_rep_spec_rejects_non_unitary_image_that_is_a_homomorphism():
    # [[1, 1], [0, -1]] squares to the identity, so it passes the homomorphism
    # check for Z_2, but it is not unitary
    spec = {"flavor": "finite", "group": {"kind": "cyclic", "n": 2}, "dim": 2,
            "name": "shear", "matrices": [serialize.mat_to_json([[1, 1], [0, -1]])]}
    with pytest.raises(ValidationError, match="not unitary"):
        serialize.rep_from_spec(spec)


@pytest.mark.parametrize("corrupt", [
    lambda spec: spec.pop("matrices"),
    lambda spec: spec["matrices"][0].append([[0.0, 0.0]]),
    lambda spec: spec["matrices"][0][0].pop(),
    lambda spec: spec["matrices"][0][0][0].__setitem__(0, float("nan")),
])
def test_rep_spec_malformed_payloads_raise_validation_error(corrupt):
    spec = serialize.rep_to_spec(swap_rep())
    corrupt(spec)
    with pytest.raises(ValidationError):
        serialize.rep_from_spec(spec)


def _homomorphism_by_pairs(r):
    """Per-pair reference: one ``frob`` for each generator and element."""
    g, mats, res = r.group, r.representatives(), 0.0
    for a in g.generators:
        for b in range(g.order):
            res = max(res, frob(mats[g.multiply(a, b)] - mats[a] @ mats[b]))
    for gi, img in zip(g.generators, r.generator_images):
        res = max(res, frob(mats[gi] - img))
    return res


_FINITE_REPS = {
    "dihedral-s3": dihedral_rep_s3, "perm3": lambda: perm_rep_qubits(3),
    "perm4": lambda: perm_rep_qubits(4),
    "regular-S4": lambda: left_regular_rep(make_symmetric(4)),
    "regular-D6": lambda: left_regular_rep(make_dihedral(6)),
    "regular-Z128": lambda: left_regular_rep(make_cyclic(128)),
    "bitflip3": lambda: bitflip_rep(3), "swap": swap_rep,
    "translation4": lambda: translation_rep(4),
}


@pytest.mark.parametrize("name", sorted(_FINITE_REPS))
@pytest.mark.parametrize("conjugate", [False, True])
def test_verify_homomorphism_equals_per_pair_loop(name, conjugate):
    rep = _FINITE_REPS[name]()
    if conjugate:
        u = haar_unitary(rep.dim, np.random.default_rng(5))
        rep = finite_rep_from_images(
            rep.group, [u @ m @ dagger(u) for m in rep.generator_images], rep.name)
    assert verify_homomorphism(rep) == _homomorphism_by_pairs(rep)


def test_verify_homomorphism_chunks_cross_a_boundary_on_regular_z128():
    rep = _FINITE_REPS["regular-Z128"]()
    per_chunk = linalg._CHUNK_BYTES // rep.representatives()[0].nbytes
    assert max(per_chunk, 1) < rep.group.order


def loop_left_regular_images(group):
    def l_matrix(h):
        m = np.zeros((group.order, group.order), dtype=complex)
        for g in range(group.order):
            m[group.multiply(h, g), g] = 1.0
        return m

    return np.array([l_matrix(h) for h in group.generators])


@pytest.mark.parametrize("group", [make_cyclic(1), make_cyclic(7), make_cyclic(512),
                                   make_dihedral(4), make_dihedral(9), make_symmetric(4),
                                   make_symmetric(5)], ids=lambda g: g.name)
def test_left_regular_images_match_the_loop(group):
    rep = left_regular_rep(group)
    want = loop_left_regular_images(group)
    assert rep.dim == group.order
    assert rep.generator_images.dtype == want.dtype
    assert rep.generator_images.tobytes() == want.tobytes()


def test_finite_rep_from_images_stacks_its_images_once(monkeypatch):
    calls = []
    stack = representations._image_stack
    monkeypatch.setattr(representations, "_image_stack", lambda x: calls.append(1) or stack(x))
    g = make_symmetric(3)
    images = [X, Z]
    rep = finite_rep_from_images(g, images, "xz")
    assert len(calls) == 1 and rep.dim == 2
    assert np.array_equal(rep.generator_images, np.array(images, dtype=complex))
    images[0] = Y          # the rep holds its own copy
    assert np.array_equal(rep.generator_images[0], X)


@pytest.mark.parametrize("images", [[X, np.eye(3)], [[[1, 0], [0]], X], [np.eye(2)]],
                         ids=["2x2-then-3x3", "ragged-first", "too-few"])
def test_finite_rep_from_images_refuses_a_bad_stack(images):
    with pytest.raises(DimensionMismatchError):
        finite_rep_from_images(make_symmetric(3), images, "bad")
