import itertools

import numpy as np
import pytest

from equirep import linalg, serialize
from equirep.errors import InvalidParameterError, NotHermitianError
from equirep.groups import (
    MAX_MADE_ORDER,
    FiniteGroup,
    group_from_table,
    group_from_unitaries,
    identify_small_group,
    lie_closure,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    sample_lie_group_element,
    verify_group_axioms,
)
from equirep.linalg import I2, X, Y, Z, frob, hs_inner
from equirep.representations import swap_matrix


# -- constructors -----------------------------------------------------------

def test_cyclic_basic():
    g = make_cyclic(4)
    assert g.order == 4
    assert g.is_abelian()
    assert g.power(1, 4) == g.identity
    assert g.power(1, 2) != g.identity


def test_cyclic_two_matches_bitflip_table():
    g = make_cyclic(2)
    assert np.array_equal(g.mul, np.array([[0, 1], [1, 0]]))


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1
    assert verify_group_axioms(g).ok


def test_cyclic_rejects_zero():
    with pytest.raises(InvalidParameterError):
        make_cyclic(0)


def test_symmetric_s3():
    g = make_symmetric(3)
    assert g.order == 6
    assert not g.is_abelian()


def test_symmetric_trivial():
    assert make_symmetric(1).order == 1


def test_symmetric_composition_convention():
    # (12)*(23) = (123) under (sigma*tau)(i) = sigma(tau(i))
    import itertools
    g = make_symmetric(3)
    elems = list(itertools.permutations(range(3)))
    t12 = elems.index((1, 0, 2))
    t23 = elems.index((0, 2, 1))
    c123 = elems.index((1, 2, 0))  # one-line for the cycle 1->2->3->1
    assert g.multiply(t12, t23) == c123


def _symmetric_by_lookup(n):
    """Dict-lookup reference: one tuple lookup per pair of permutations."""
    import itertools
    elems = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    arr = np.array(elems, dtype=np.int64)
    mul = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i in range(len(elems)):
        composed = arr[i][arr]
        for j in range(len(elems)):
            mul[i, j] = index[tuple(composed[j])]
    gens = []
    for k in range(n - 1):
        t = list(range(n))
        t[k], t[k + 1] = t[k + 1], t[k]
        gens.append(index[tuple(t)])
    labels = ["(" + ",".join(str(x + 1) for x in p) + ")" for p in elems]
    return mul, gens or [0], labels


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_matches_dict_lookup_reference(n):
    g = make_symmetric(n)
    mul, gens, labels = _symmetric_by_lookup(n)
    assert g.mul.dtype == np.int64 and np.array_equal(g.mul, mul)
    assert list(g.generators) == gens
    assert list(g.element_labels) == labels


def test_symmetric_rejects_large():
    with pytest.raises(InvalidParameterError):
        make_symmetric(7)


def test_dihedral_relations():
    g = make_dihedral(5)
    assert g.order == 10
    r, s = g.generators
    assert g.power(r, 5) == g.identity
    assert g.multiply(g.multiply(s, r), s) == g.inverse(r)


def test_dihedral_center_of_d4():
    g = make_dihedral(4)
    center = [a for a in range(g.order)
              if all(g.multiply(a, b) == g.multiply(b, a) for b in range(g.order))]
    assert len(center) == 2


def test_dihedral_table_matches_the_element_loop():
    for n in range(3, 13):
        want = np.empty((2 * n, 2 * n), dtype=np.int64)
        for f1, k1, f2, k2 in itertools.product(range(2), range(n), range(2), range(n)):
            want[f1 * n + k1, f2 * n + k2] = (f1 + f2) % 2 * n + ((-k1 if f2 else k1) + k2) % n
        got = make_dihedral(n).mul
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n


def test_dihedral_rejects_small():
    with pytest.raises(InvalidParameterError):
        make_dihedral(2)


@pytest.mark.parametrize("make,cap", [(make_cyclic, MAX_MADE_ORDER),
                                      (make_dihedral, MAX_MADE_ORDER // 2)])
def test_made_groups_refuse_orders_above_the_cap(make, cap):
    for n in (cap + 1, 10 ** 9):
        with pytest.raises(InvalidParameterError, match=f"<= {cap}, got {n}$"):
            make(n)


@pytest.mark.parametrize("generators", [[2], [0], [0, 2]])
def test_generators_that_miss_an_element_are_refused(generators):
    with pytest.raises(InvalidParameterError, match="^generators do not generate the group$"):
        group_from_table(make_cyclic(4).mul, generators)


# -- axiom verification -----------------------------------------------------

@pytest.mark.parametrize("group", [make_cyclic(6), make_symmetric(3), make_dihedral(4)])
def test_constructors_pass_axioms(group):
    assert verify_group_axioms(group).ok


def test_corrupted_table_fails_associativity():
    g = make_cyclic(3)
    mul = g.mul.copy()
    mul[1, 1] = 1  # should be 2
    bad = g.__class__(3, mul, g.identity, g.inverses, g.generators,
                      g.element_labels, "corrupt")
    report = verify_group_axioms(bad)
    assert len(report.associativity_violations) >= 1
    assert report.associativity_violations == _cubic_scan(mul)


def _cubic_scan(mul) -> list[tuple[int, int, int]]:
    """Every triple (a, b, c) with (a*b)*c != a*(b*c), in scan order."""
    n = len(mul)
    return [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if mul[mul[a, b], c] != mul[a, mul[b, c]]]


@pytest.mark.parametrize("generators", [[1, 2], None])
def test_broken_table_lists_the_violations_of_the_cubic_scan(generators):
    # a Latin square with identity 0 and every element its own inverse: a
    # loop of order 5 that is not a group
    loop = group_from_table([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]], generators, name="loop5")
    report = verify_group_axioms(loop)
    assert report.identity_ok and report.inverses_ok and not report.ok
    assert report.associativity_violations == _cubic_scan(loop.mul)
    assert len(report.associativity_violations) == 36


@pytest.mark.parametrize("mul, identity, generators", [
    # the generator passes Light's test but reaches only the identity
    ([[0, 0, 0], [0, 1, 2], [1, 2, 0]], 1, [1]),
    # the generator reaches every element, but from an element that is no identity
    ([[0, 0, 0], [0, 0, 0], [0, 1, 0]], 2, [1]),
], ids=["not-generating", "false-identity"])
def test_light_test_alone_does_not_certify_a_table(mul, identity, generators):
    mul = np.array(mul)
    table = FiniteGroup(3, mul, identity, np.zeros(3, dtype=np.int64), generators,
                        ["a", "b", "c"], "magma")
    violations = verify_group_axioms(table).associativity_violations
    assert violations and violations == _cubic_scan(mul)


@pytest.mark.parametrize("group", [make_cyclic(7), make_dihedral(5), make_symmetric(4),
                                   group_from_table(make_dihedral(6).mul)],  # every element listed
                         ids=["Z7", "D5", "S4", "D6-all"])
def test_light_test_passes_exactly_the_associative_tables(group):
    assert _cubic_scan(group.mul) == []
    assert verify_group_axioms(group).associativity_violations == []


# -- identification ---------------------------------------------------------

def test_identify_bitflip_unitaries():
    g = group_from_unitaries([I2, X])
    assert identify_small_group(g) == "Z_2"


def test_identify_swap_unitaries():
    g = group_from_unitaries([np.eye(4, dtype=complex), swap_matrix()])
    assert identify_small_group(g) == "Z_2"


def test_identify_s3_not_z6():
    assert identify_small_group(make_symmetric(3)) == "S_3"
    assert identify_small_group(make_cyclic(6)) == "Z_6"


def test_identify_dihedral_names():
    assert identify_small_group(make_dihedral(3)) == "S_3"  # D_3 is S_3
    assert identify_small_group(make_dihedral(4)) == "D_4"
    assert identify_small_group(make_dihedral(6)) == "D_6"


def test_identify_klein_four():
    mats = [np.eye(4, dtype=complex), np.kron(X, I2), np.kron(I2, X), np.kron(X, X)]
    g = group_from_unitaries(mats)
    assert identify_small_group(g) == "Z_2xZ_2"


def test_identify_s4():
    assert identify_small_group(make_symmetric(4)) == "S_4"


def test_identify_relabeling_invariance():
    rng = np.random.default_rng(0)
    for base in (make_cyclic(6), make_dihedral(4), make_symmetric(3),
                 make_dihedral(6), make_cyclic(12)):
        want = identify_small_group(base)
        for _ in range(4):
            perm = rng.permutation(base.order)
            inv = np.argsort(perm)
            mul = perm[base.mul[np.ix_(inv, inv)]]
            relabeled = group_from_table(mul, name="relabeled")
            assert identify_small_group(relabeled) == want


def test_identify_unknown_for_quaternion():
    # Q_8 given by unitaries {+-1, +-iX, +-iY, +-iZ}
    mats = []
    for sign in (1, -1):
        mats.append(sign * np.eye(2, dtype=complex))
        for p in (X, Y, Z):
            mats.append(sign * 1j * p)
    g = group_from_unitaries(mats)
    assert identify_small_group(g) == "unknown"


# -- lie algebras -----------------------------------------------------------

def test_lie_closure_pauli_pair():
    alg = lie_closure([X, Y])
    assert alg.dim == 3


def test_lie_closure_single_generator():
    assert lie_closure([X]).dim == 1


def test_lie_closure_collective_pair_adds_z_direction():
    s1 = np.kron(X, I2) + np.kron(I2, X)
    s2 = np.kron(Y, I2) + np.kron(I2, Y)
    alg = lie_closure([s1, s2])
    assert alg.dim == 3
    s3 = np.kron(Z, I2) + np.kron(I2, Z)
    coeffs = [hs_inner(b, s3) for b in alg.generators]
    recon = sum(c * b for c, b in zip(coeffs, alg.generators))
    assert frob(recon - s3) < 1e-9


def test_lie_closure_orthonormal_and_idempotent():
    alg = lie_closure([X + 0.3 * Z, Y])
    gram = np.array([[hs_inner(a, b) for b in alg.generators] for a in alg.generators])
    assert frob(gram - np.eye(alg.dim)) < 1e-10
    again = lie_closure(alg.generators)
    assert again.dim == alg.dim
    # same span: projector distance on real vectorizations
    va = np.array([linalg.hvec(h) for h in alg.generators])
    vb = np.array([linalg.hvec(h) for h in again.generators])
    pa = va.T @ va
    pb = vb.T @ vb
    assert np.linalg.norm(pa - pb) < 1e-9


def test_lie_closure_residual_zero_after_closure():
    alg = lie_closure([X, Y])
    assert alg.closure_residual() < 1e-9


def test_lie_closure_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        lie_closure([1j * X])


def test_sample_lie_group_element_diagonal_for_z():
    from equirep.groups import LieAlgebraBasis
    alg = LieAlgebraBasis([Z.copy()])
    u = sample_lie_group_element(alg, rng_seed=5, depth=4)
    assert frob(u - np.diag(np.diag(u))) < 1e-12


def test_sample_lie_group_element_deterministic():
    alg = lie_closure([X, Y])
    u1 = sample_lie_group_element(alg, rng_seed=7, depth=3)
    u2 = sample_lie_group_element(alg, rng_seed=7, depth=3)
    assert np.array_equal(u1, u2)


def test_sample_lie_group_element_su2_determinant():
    alg = lie_closure([X, Y])
    for seed in range(5):
        u = sample_lie_group_element(alg, rng_seed=seed, depth=4)
        assert abs(np.linalg.det(u) - 1) < 1e-9
        assert frob(u.conj().T @ u - np.eye(2)) < 1e-10


# -- serialization ----------------------------------------------------------

@pytest.mark.parametrize("group", [make_cyclic(5), make_symmetric(3), make_dihedral(4)])
def test_group_spec_round_trip(group):
    spec = serialize.group_to_spec(group)
    back = serialize.group_from_spec(spec)
    assert np.array_equal(back.mul, group.mul)


def test_table_spec_round_trip_bit_exact():
    g = group_from_unitaries([I2, X])
    spec = serialize.group_to_spec(g)
    text = serialize.dumps_report(spec)
    import json
    back = serialize.group_from_spec(json.loads(text))
    assert np.array_equal(back.mul, g.mul)
    assert serialize.dumps_report(serialize.group_to_spec(back)) == text


def test_table_spec_verifies_axioms_on_load():
    from equirep.errors import ValidationError
    g = make_cyclic(3)
    spec = serialize.group_to_spec(make_dihedral(3))
    spec = {"kind": "table", "mul": [[int(x) for x in row] for row in g.mul]}
    spec["mul"][1][1] = 1  # corrupt one cell
    with pytest.raises(ValidationError):
        serialize.group_from_spec(spec)


def test_source_from_spec_dispatches_both_kinds():
    alg = lie_closure([X, Y])
    back = serialize.source_from_spec(serialize.lie_to_spec(alg))
    assert back.dim == 3
    g = serialize.source_from_spec({"kind": "cyclic", "n": 5})
    assert g.order == 5


def test_lie_spec_round_trip_bit_exact():
    alg = lie_closure([X + 0.12345678901234567 * Z, Y])
    spec = serialize.lie_to_spec(alg)
    text = serialize.dumps_report(spec)
    import json
    back = serialize.lie_from_spec(json.loads(text))
    for a, b in zip(alg.generators, back.generators):
        assert np.array_equal(a, b)
