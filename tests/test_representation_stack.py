"""A representation is one (g, d, d) stack of generator images.

Every constructor builds that stack, finite-flavor elements are word
products of it, the Lie sampler diagonalises all its factors at once, and
commutation is checked against it in one place.  The per-element and
per-factor loops that these replaced are kept below as references; results
must be equal to the last bit, since the arithmetic is unchanged.
"""

import numpy as np
import pytest

from equirep import serialize
from equirep.decompose import irrep_blocks, isotypic_decompose
from equirep.equivariant import check_equivariance, equivariant_generators
from equirep.errors import DimensionMismatchError, ValidationError
from equirep.groups import group_from_table, make_cyclic, make_dihedral, make_symmetric
from equirep.linalg import X, Y, Z, comm, dagger, exp_unitary, frob, random_hermitian
from equirep.representations import (
    Representation,
    adjoint_action,
    bitflip_rep,
    dihedral_rep_s3,
    direct_sum,
    dual,
    finite_rep_from_images,
    left_regular_rep,
    perm_rep_qubits,
    su2_fundamental,
    swap_rep,
    tensor_power,
    tensor_product,
    translation_rep,
    trivial_rep,
    unitary_algebra_rep,
    verify_homomorphism,
)
from equirep.tasks import Dataset, LabeledState, label_invariance_check, symmetry_test


def assert_images(rep, count):
    imgs = rep.generator_images
    assert isinstance(imgs, np.ndarray)
    assert imgs.dtype == np.complex128
    assert imgs.shape == (count, rep.dim, rep.dim)
    assert rep.generator_representatives() is imgs


# -- reference loops ---------------------------------------------------------

def loop_word_products(rep):
    """Every element as the product of its shortest word, one at a time."""
    out = []
    for word in rep.group.element_words():
        m = np.eye(rep.dim, dtype=complex)
        for gi in word:
            m = m @ rep.generator_images[gi]
        out.append(m)
    return out


def loop_exp_unitary(h, theta):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ dagger(v)


def loop_sample_elements(rep, rng_seed, n, depth=3):
    """The per-factor sampler: one exponential per (w, theta) draw."""
    rng = np.random.default_rng(rng_seed)
    out = []
    if rep.flavor == "finite":
        for _ in range(n):
            out.append(rep.representative(int(rng.integers(rep.group.order))))
        return out
    for _ in range(n):
        u = np.eye(rep.dim, dtype=complex)
        for _ in range(depth):
            w = rng.standard_normal(len(rep.generator_images))
            h = sum(wi * hi for wi, hi in zip(w, rep.generator_images))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            u = u @ loop_exp_unitary(h, theta)
        out.append(u)
    return out


def loop_commutation(op, rep):
    """max_K ||[op, K]||_F over the generator representatives, as they were
    built before: word products for finite reps, images for Lie reps."""
    if rep.flavor == "finite":
        ks = [rep.representative(g) for g in rep.group.generators]
    else:
        ks = list(rep.generator_images)
    res = 0.0
    for k in ks:
        res = max(res, frob(comm(op, k)))
    return res


# -- every constructor builds one stack -----------------------------------------

def constructor_cases():
    s3, su2 = dihedral_rep_s3(), su2_fundamental()
    return [
        (perm_rep_qubits(3), 2), (bitflip_rep(3), 1), (swap_rep(), 1), (s3, 2),
        (trivial_rep(make_cyclic(4), 3), 1), (tensor_power(s3, 2), 2),
        (direct_sum(s3, trivial_rep(s3.group, 1)), 2), (dual(s3), 2),
        (adjoint_action(s3), 2), (left_regular_rep(make_dihedral(4)), 2),
        (translation_rep(3), 1),
        (finite_rep_from_images(make_cyclic(2), [X], "x"), 1),
        (serialize.rep_from_spec(serialize.rep_to_spec(s3)), 2),
    ] + [(b, 2) for b in irrep_blocks(tensor_power(s3, 2),
                                      isotypic_decompose(tensor_power(s3, 2)))] \
      + [(su2, 3), (unitary_algebra_rep(3), 9), (trivial_rep(su2.algebra, 2), 3),
         (tensor_power(su2, 3), 3), (direct_sum(su2, su2), 3), (dual(su2), 3),
         (adjoint_action(su2), 3),
         (serialize.rep_from_spec(serialize.rep_to_spec(su2)), 3)] \
      + [(b, 3) for b in irrep_blocks(tensor_power(su2, 3),
                                      isotypic_decompose(tensor_power(su2, 3)))]


@pytest.mark.parametrize("rep,count", constructor_cases(), ids=lambda c: getattr(c, "name", ""))
def test_every_constructor_gives_one_complex_stack(rep, count):
    assert_images(rep, count)


def test_images_are_copied_into_the_stack():
    images = [X.copy()]
    rep = finite_rep_from_images(make_cyclic(2), images, "x")
    images[0][0, 1] = 5.0
    assert rep.generator_images[0, 0, 1] == 1.0


# -- the constructor's shape check ------------------------------------------------

@pytest.mark.parametrize("images,dim", [
    ([np.eye(2), np.eye(3)], 2),      # ragged
    ([np.eye(2)], 2),                 # one image short
    ([np.eye(2)] * 3, 2),             # one image too many
    ([np.eye(2), np.eye(2)], 3),      # wrong dim
    ([np.eye(2, 3), np.eye(2, 3)], 2),  # not square
])
def test_finite_stack_must_be_count_dim_dim(images, dim):
    with pytest.raises(DimensionMismatchError):
        Representation(make_symmetric(3), "finite", dim, "bad", images)


@pytest.mark.parametrize("images,dim", [
    ([X / 2, Y / 2, np.eye(3)], 2),   # ragged
    ([X / 2, Y / 2], 2),              # one image short
    ([X / 2, Y / 2, Z / 2], 3),       # wrong dim
])
def test_lie_stack_must_be_count_dim_dim(images, dim):
    with pytest.raises(DimensionMismatchError):
        Representation(su2_fundamental().algebra, "lie", dim, "bad", images)


def test_ragged_finite_images_fail_at_construction():
    with pytest.raises(DimensionMismatchError):
        finite_rep_from_images(make_symmetric(3), [np.eye(2), np.eye(3)], "ragged")


# -- elements as word products ------------------------------------------------------

@pytest.mark.parametrize("rep", [dihedral_rep_s3(), perm_rep_qubits(4),
                                 left_regular_rep(make_dihedral(5)), perm_rep_qubits(5)],
                         ids=lambda r: r.name)
def test_representatives_are_the_word_products(rep):
    got = rep.representatives()
    assert got.dtype == np.complex128 and got.shape == (rep.group.order, rep.dim, rep.dim)
    assert np.array_equal(got, np.array(loop_word_products(rep)))
    assert rep.representatives() is got
    for i in (0, rep.group.order - 1):
        assert np.array_equal(rep.representative(i), got[i])


def test_single_element_of_a_large_group_is_built_alone():
    rep = perm_rep_qubits(5)  # order 120
    m = rep.representative(77)
    assert rep._all is None
    assert np.array_equal(m, loop_word_products(rep)[77])


@pytest.mark.parametrize("make", [lambda: perm_rep_qubits(4),
                                  lambda: left_regular_rep(make_symmetric(4)),
                                  dihedral_rep_s3, lambda: translation_rep(4)],
                         ids=["perm4", "regular-S4", "dihedral-S3", "translation4"])
def test_single_elements_have_the_bits_of_the_stack(make):
    rep = make()
    before = [rep.representative(i).tobytes() for i in range(rep.group.order)]
    assert rep._all is None
    stack = rep.representatives()
    assert [m.tobytes() for m in stack] == before
    assert [rep.representative(i).tobytes() for i in range(rep.group.order)] == before


def test_constructors_build_no_element_stack():
    s3, perm3 = dihedral_rep_s3(), perm_rep_qubits(3)
    made = [s3, perm3, bitflip_rep(2), swap_rep(), translation_rep(3),
            left_regular_rep(make_symmetric(3)), trivial_rep(make_cyclic(4), 2),
            tensor_product(s3, perm3), dual(s3), dual(perm3), direct_sum(s3, perm3),
            tensor_power(perm3, 2), adjoint_action(s3), adjoint_action(perm3)]
    assert [r.name for r in made if r._all is not None] == []


def test_generator_image_must_match_its_word_product():
    # Generator 0 is the identity element, so no word walks its image: the
    # homomorphism check compares the image itself.
    z2 = group_from_table([[0, 1], [1, 0]], [0, 1], name="Z2-table")
    good = finite_rep_from_images(z2, [np.eye(2), X], "good")
    bad = finite_rep_from_images(z2, [X, X], "bad")
    assert verify_homomorphism(good) == 0.0
    assert verify_homomorphism(bad) >= 1.0
    with pytest.raises(ValidationError):
        serialize.rep_from_spec(serialize.rep_to_spec(bad))


# -- the batched Lie sampler ----------------------------------------------------------

@pytest.mark.parametrize("rep", [su2_fundamental()]
                         + [tensor_power(su2_fundamental(), k) for k in (2, 3, 4)]
                         + [unitary_algebra_rep(3), dihedral_rep_s3(), perm_rep_qubits(5)],
                         ids=lambda r: r.name)
def test_sampler_is_bit_identical_to_per_factor_loop(rep):
    for seed in range(5):
        got = rep.sample_elements(seed, 20)
        assert got.dtype == np.complex128 and got.shape == (20, rep.dim, rep.dim)
        assert np.array_equal(got, np.array(loop_sample_elements(rep, seed, 20)))
    assert rep.sample_elements(0, 0).shape == (0, rep.dim, rep.dim)


def test_exp_unitary_stack_equals_one_at_a_time():
    rng = np.random.default_rng(8)
    hs = np.array([random_hermitian(4, rng) for _ in range(6)])
    thetas = rng.uniform(0, 2 * np.pi, 6)
    got = exp_unitary(hs, thetas)
    assert np.array_equal(got, np.array([exp_unitary(h, t) for h, t in zip(hs, thetas)]))
    assert np.array_equal(got[2], loop_exp_unitary(hs[2], float(thetas[2])))


# -- one commutation check ------------------------------------------------------------

@pytest.mark.parametrize("rep", [dihedral_rep_s3(), perm_rep_qubits(3), bitflip_rep(2),
                                 left_regular_rep(make_symmetric(4)), su2_fundamental(),
                                 tensor_power(su2_fundamental(), 3), unitary_algebra_rep(3)],
                         ids=lambda r: r.name)
def test_commutation_check_equals_generator_loop(rep):
    rng = np.random.default_rng(12)
    ops = [random_hermitian(rep.dim, rng)] + list(equivariant_generators(rep).generators)
    for op in ops:
        got = check_equivariance(op, rep)
        assert got == loop_commutation(op, rep)
        assert symmetry_test(op, rep).max_residual == got


def test_invariance_check_draws_no_samples_for_small_groups(monkeypatch):
    rep = bitflip_rep(1)

    def refuse(*args, **kwargs):
        raise AssertionError("samples drawn but not used")
    monkeypatch.setattr(rep, "sample_elements", refuse)
    ds = Dataset("probe", [LabeledState(Z.astype(complex), 0.0)], rep)
    assert label_invariance_check(lambda rho: float(np.trace(rho @ Z).real), rep, ds) == 4.0
