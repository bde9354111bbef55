import itertools
import math

import numpy as np
import pytest

from equirep import linalg, serialize
from equirep.errors import InvalidParameterError, NotHermitianError
from equirep.groups import (
    MAX_MADE_ORDER,
    FiniteGroup,
    _direct_product,
    _element_orders,
    _find_identity,
    _find_inverses,
    _is_isomorphic,
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
from equirep.linalg import I2, X, Y, Z, frob
from equirep.representations import Representation, swap_matrix, verify_homomorphism
from oracles import element_order


# -- constructors -----------------------------------------------------------

def test_cyclic_basic():
    g = make_cyclic(4)
    assert g.order == 4
    assert g.is_abelian()
    assert _element_orders(g)[1] == 4


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
    assert g.mul[t12, t23] == c123


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
    assert _element_orders(g)[r] == 5
    assert g.mul[g.mul[s, r], s] == g.inverses[r]


def test_dihedral_center_of_d4():
    g = make_dihedral(4)
    center = [a for a in range(g.order)
              if np.array_equal(g.mul[a], g.mul[:, a])]
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


def test_identify_builds_no_candidate_past_the_match(monkeypatch):
    # Z_24 and S_4 come before D_12 and Z_2xZ_12, which are never made.
    from equirep import groups

    def fail(*args):
        pytest.fail("a candidate after the match was built")
    s4 = make_symmetric(4)
    monkeypatch.setattr(groups, "make_dihedral", fail)
    monkeypatch.setattr(groups, "_direct_product", fail)
    assert identify_small_group(s4) == "S_4"


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
    coeffs = [np.vdot(b, s3) for b in alg.generators]
    recon = sum(c * b for c, b in zip(coeffs, alg.generators))
    assert frob(recon - s3) < 1e-9


def test_lie_closure_orthonormal_and_idempotent():
    alg = lie_closure([X + 0.3 * Z, Y])
    gram = np.array([[np.vdot(a, b) for b in alg.generators] for a in alg.generators])
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
    defining = Representation(alg, "lie", alg.carrier_dim, "defining",
                              generator_images=alg.generators)
    assert verify_homomorphism(defining) < 1e-9


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


def test_lie_spec_round_trip_bit_exact():
    alg = lie_closure([X + 0.12345678901234567 * Z, Y])
    spec = serialize.lie_to_spec(alg)
    text = serialize.dumps_report(spec)
    import json
    back = serialize.lie_from_spec(json.loads(text))
    for a, b in zip(alg.generators, back.generators):
        assert np.array_equal(a, b)


# -- array-indexed table routines against the element loops they replaced ----

def loop_find_inverses(mul, identity):
    n = mul.shape[0]
    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.flatnonzero(mul[a] == identity)
        for b in hits:
            if mul[b, a] == identity:
                inv[a] = b
                break
        if inv[a] < 0:
            raise InvalidParameterError(f"element {a} has no two-sided inverse")
    return inv


def loop_is_isomorphic(g, h):
    def profile(k):
        return tuple(sorted(element_order(k, a) for a in range(k.order)))

    if g.order != h.order or g.is_abelian() != h.is_abelian() or profile(g) != profile(h):
        return False
    h_words = h.element_words()
    g_orders = [element_order(g, a) for a in range(g.order)]
    h_gen_orders = [element_order(h, a) for a in h.generators]
    candidates = [[a for a in range(g.order) if g_orders[a] == o] for o in h_gen_orders]
    for gen_images in itertools.product(*candidates):
        phi = []
        for w in h_words:
            x = g.identity
            for gi in w:
                x = int(g.mul[x, gen_images[gi]])
            phi.append(x)
        if len(set(phi)) != g.order:
            continue
        if all(g.mul[phi[a], phi[b]] == phi[h.mul[a, b]]
               for a in range(h.order) for b in range(h.order)):
            return True
    return False


def loop_direct_product_table(g, h):
    n, m = g.order, h.order
    mul = np.empty((n * m, n * m), dtype=np.int64)
    for a1 in range(n):
        for b1 in range(m):
            mul[a1 * m + b1, :] = (g.mul[a1][:, None] * m + h.mul[b1][None, :]).reshape(-1)
    return mul


def _relabeled(base, seed, generators=None):
    perm = np.random.default_rng(seed).permutation(base.order)
    inv = np.argsort(perm)
    gens = None if generators is None else [int(perm[s]) for s in generators]
    return group_from_table(perm[base.mul[np.ix_(inv, inv)]], gens, name="relabeled")


def _quaternion():
    units = (np.eye(2, dtype=complex), 1j * X, 1j * Y, 1j * Z)
    mats = [sign * m for sign in (1, -1) for m in units]
    return group_from_unitaries(mats)


def _candidate_groups():
    """Every reference group that identify_small_group tries, orders 2..24."""
    out = [make_cyclic(n) for n in range(2, 25)]
    out += [make_symmetric(3), make_symmetric(4)]
    out += [make_dihedral(n) for n in range(3, 13)]
    out += [_direct_product(make_cyclic(a), make_cyclic(n // a))
            for n in range(4, 25) for a in range(2, math.isqrt(n) + 1)
            if n % a == 0 and math.gcd(a, n // a) > 1]
    return out


def _inverse_or_error(find, mul):
    try:
        return find(mul, _find_identity(mul)).tobytes()
    except InvalidParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("group", [make_cyclic(n) for n in (1, 2, 5, 64, 2048)]
                         + [make_dihedral(n) for n in (3, 7, 64, 1024)]
                         + [make_symmetric(n) for n in range(1, 7)] + [_quaternion()],
                         ids=lambda g: g.name)
def test_find_inverses_matches_the_loop_on_groups(group):
    got = _find_inverses(group.mul, group.identity)
    assert got.dtype == np.int64
    assert got.tobytes() == loop_find_inverses(group.mul, group.identity).tobytes()


def test_find_inverses_matches_the_loop_on_non_group_tables():
    tables = [[[0, 1, 2], [1, 0, 0], [2, 1, 0]],     # a row with two right inverses
              [[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 0, 1], [3, 0, 1, 2]],  # 1's first right
                                                                        # inverse is one-sided
              [[0, 1, 2], [1, 2, 2], [2, 1, 1]]]     # no inverse for 1
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for _ in range(60):
            mul = rng.integers(0, n, (n, n))
            mul[0], mul[:, 0] = np.arange(n), np.arange(n)
            tables.append(mul)
    outcomes = set()
    for mul in tables:
        mul = np.asarray(mul, dtype=np.int64)
        want = _inverse_or_error(loop_find_inverses, mul)
        assert _inverse_or_error(_find_inverses, mul) == want
        outcomes.add(isinstance(want, str))
    assert outcomes == {True, False}


@pytest.mark.parametrize("group", _candidate_groups()[::3] + [_quaternion(), make_symmetric(5)],
                         ids=lambda g: g.name)
def test_element_orders_match_element_order(group):
    want = [element_order(group, a) for a in range(group.order)]
    assert _element_orders(group).tolist() == want


def test_is_isomorphic_matches_the_loop_on_every_candidate_pair():
    groups = _candidate_groups()
    for g in groups:
        for h in groups:
            if g.order == h.order:
                assert _is_isomorphic(g, h) == loop_is_isomorphic(g, h), (g.name, h.name)


def test_is_isomorphic_matches_the_loop_on_relabelings_and_the_quaternions():
    refs = _candidate_groups()
    cases = [(_relabeled(base, seed), base) for seed, base in enumerate(refs[::2])]
    q8 = _quaternion()
    cases += [(q8, h) for h in refs if h.order == 8]
    i, j = q8.generators[5], q8.generators[6]    # iX and iY generate Q_8
    cases.append((q8, group_from_table(q8.mul, [i, j])))
    cases.append((_relabeled(q8, 11), group_from_table(q8.mul, [i, j])))
    seen = set()
    for g, h in cases:
        for ref in [h] + [r for r in refs if r.order == g.order][:3]:
            got = _is_isomorphic(g, ref)
            assert got == loop_is_isomorphic(g, ref), (g.name, ref.name)
            seen.add(got)
    assert seen == {True, False}
    assert identify_small_group(q8) == "unknown"


@pytest.mark.parametrize("g,h", [
    (make_cyclic(2), make_cyclic(12)), (make_cyclic(3), make_cyclic(3)),
    (make_dihedral(4), make_cyclic(5)), (make_cyclic(3), make_dihedral(7)),
    (make_symmetric(4), make_cyclic(2)), (make_cyclic(2), make_symmetric(5)),
    (make_symmetric(3), make_symmetric(4))], ids=lambda k: k.name)
def test_direct_product_table_matches_the_loop(g, h):
    got = _direct_product(g, h)
    want = loop_direct_product_table(g, h)
    assert got.mul.dtype == want.dtype and got.mul.tobytes() == want.tobytes()
    assert got.name == f"{g.name}x{h.name}"
