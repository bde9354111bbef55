"""Finite groups as Cayley tables and Lie algebras as Hermitian generator bases.

Composition convention for permutations: ``(sigma * tau)(i) = sigma(tau(i))``,
i.e. the right factor acts first.  This matches matrix multiplication of the
corresponding permutation matrices and keeps the index-permutation action
associative (naive index substitution without the inverse is not).

Lie algebra elements are stored as Hermitian matrices H in the physicist
convention: group elements are products of ``exp(-i theta H)``.  The
skew-Hermitian mathematician convention enters only through the factor -i at
exponentiation time.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatchError, InvalidParameterError, NotHermitianError
from .linalg import DEFAULT_TOL, Tolerance

__all__ = [
    "FiniteGroup", "GroupAxiomReport", "LieAlgebraBasis", "GROUP_MAKERS",
    "make_cyclic", "make_symmetric", "make_dihedral", "group_from_table",
    "group_from_unitaries", "verify_group_axioms", "identify_small_group",
    "lie_closure", "sample_lie_group_element",
]

MAX_TABLE_ORDER = 512  # exhaustive axiom checks are cubic in the order
MAX_MADE_ORDER = 2048  # a made Cayley table holds order^2 int64 entries, 32 MB at the cap


@dataclass
class FiniteGroup:
    """A finite group given by its composition table.

    ``mul[a, b]`` is the index of ``a * b``.  ``generators`` index a set whose
    closure is the whole group; ``element_labels`` are display strings only.
    ``made`` is the ``(kind, n)`` of the :data:`GROUP_MAKERS` entry that built
    the group, None for a group from any other table.
    """

    order: int
    mul: np.ndarray
    identity: int
    inverses: np.ndarray
    generators: list[int]
    element_labels: list[str]
    name: str = "group"
    made: tuple[str, int] | None = field(default=None, repr=False, compare=False)

    def multiply(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inverses[a])

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.multiply(x, a)
            k += 1
        return k

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def power(self, a: int, k: int) -> int:
        x = self.identity
        for _ in range(k):
            x = self.multiply(x, a)
        return x

    def element_tree(self) -> list[tuple[int, int, int]]:
        """Breadth-first spanning tree of the Cayley graph from the identity.

        One ``(element, parent, gi)`` triple per non-identity element, in
        visiting order, with ``element = parent * generators[gi]``; a parent
        always comes before its children.  Deterministic: generators are
        tried in listed order.
        """
        right = self.mul[:, self.generators].tolist()  # right[e][gi] = e * generators[gi]
        seen = [False] * self.order
        seen[self.identity] = True
        tree = []
        frontier = [self.identity]
        while frontier:
            nxt = []
            for e in frontier:
                for gi, f in enumerate(right[e]):
                    if not seen[f]:
                        seen[f] = True
                        tree.append((f, e, gi))
                        nxt.append(f)
            frontier = nxt
        if len(tree) != self.order - 1:
            raise InvalidParameterError("generators do not generate the group")
        return tree

    def element_words(self) -> list[list[int]]:
        """Shortest word in ``generators`` for every element: its path in
        :meth:`element_tree`."""
        words: list[list[int]] = [[] for _ in range(self.order)]
        for f, e, gi in self.element_tree():
            words[f] = words[e] + [gi]
        return words

    def conjugate(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.multiply(self.multiply(g, h), self.inverse(g))


@dataclass
class GroupAxiomReport:
    associativity_violations: list[tuple[int, int, int]]
    identity_ok: bool
    inverses_ok: bool

    @property
    def ok(self) -> bool:
        return (not self.associativity_violations) and self.identity_ok and self.inverses_ok


def _find_identity(mul: np.ndarray) -> int:
    n = mul.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
            return e
    raise InvalidParameterError("table has no identity element")


def _find_inverses(mul: np.ndarray, identity: int) -> np.ndarray:
    """Each element's first two-sided inverse, from one scan of the table."""
    a, b = np.divmod(np.flatnonzero(mul == identity), len(mul))  # faster than a 2-D nonzero
    two_sided = mul[b, a] == identity
    rows, first = np.unique(a[two_sided], return_index=True)
    if len(rows) < len(mul):
        a0 = np.setdiff1d(np.arange(len(mul)), rows)[0]
        raise InvalidParameterError(f"element {a0} has no two-sided inverse")
    return b[two_sided][first]


def group_from_table(mul, generators=None, element_labels=None, name="group") -> FiniteGroup:
    """Build a group from an explicit table, deriving identity and inverses.

    The table is trusted to be associative here; run
    :func:`verify_group_axioms` for the exhaustive check (order <= 512).
    """
    try:
        mul = np.asarray(mul)
    except ValueError as exc:      # ragged nested lists
        raise InvalidParameterError("table must be a square array") from exc
    n = len(mul) if mul.ndim else 0
    if mul.shape != (n, n) or n == 0:
        raise InvalidParameterError("table must be square and non-empty")
    if mul.dtype.kind not in "iu":
        raise InvalidParameterError(f"table entries must be integers, got dtype {mul.dtype}")
    mul = mul.astype(np.int64)
    if mul.min() < 0 or mul.max() >= n:
        raise InvalidParameterError("table entries must be element indices")
    identity = _find_identity(mul)
    inverses = _find_inverses(mul, identity)
    if generators is None:
        generators = list(range(n))
    try:
        generators = [operator.index(g) for g in generators]
    except TypeError as exc:
        raise InvalidParameterError(
            f"generators must be a list of integer element indices, got {generators!r}") from exc
    if any(not 0 <= g < n for g in generators):
        raise InvalidParameterError(f"generators must lie in 0..{n - 1}, got {generators}")
    if element_labels is None:
        element_labels = [f"g{i}" for i in range(n)]
    group = FiniteGroup(n, mul, identity, inverses, generators, list(element_labels), name)
    group.element_tree()  # raises unless the generators reach every element
    return group


def _generating_subset(mul: np.ndarray, gens: list[int], identity: int) -> list[int] | None:
    """Generators, in order, that are not yet reached when their turn comes.

    Right products by them reach every element from the identity, or the
    result is None.  For a group the skipped generators lie in the subgroup
    of the kept ones, so a generating list always gives a subset.
    """
    seen = np.zeros(len(mul), dtype=bool)
    seen[identity] = True
    subset: list[int] = []
    for g in gens:
        if seen[g]:
            continue
        subset.append(g)
        frontier = np.flatnonzero(seen)
        while frontier.size:
            new = np.zeros_like(seen)
            new[mul[frontier][:, subset]] = True
            new &= ~seen
            seen |= new
            frontier = np.flatnonzero(new)
    return subset if seen.all() else None


def verify_group_axioms(g: FiniteGroup) -> GroupAxiomReport:
    """Exhaustive axiom check; order capped at 512.

    Associativity is decided by Light's test: (x*s)*y = x*(s*y) for every s
    in a subset of the generators and all x, y.  The elements s that pass it
    are closed under the product, so when right products by the subset reach
    every element from a true identity, the table is associative.
    Otherwise the cubic scan over all triples lists every violation.
    """
    if g.order > MAX_TABLE_ORDER:
        raise InvalidParameterError(f"exhaustive check capped at order {MAX_TABLE_ORDER}")
    mul = g.mul
    idx = np.arange(g.order)
    identity_ok = bool(
        np.array_equal(mul[g.identity], idx) and np.array_equal(mul[:, g.identity], idx))
    inverses_ok = bool(np.all(mul[idx, g.inverses] == g.identity)
                       and np.all(mul[g.inverses, idx] == g.identity))
    violations: list[tuple[int, int, int]] = []
    subset = _generating_subset(mul, g.generators, g.identity) if identity_ok else None
    if subset is None or not all(np.array_equal(mul[mul[:, s]], mul[:, mul[s]])
                                 for s in subset):
        for a in range(g.order):
            left = mul[mul[a, :], :]        # (b, c) -> (a*b)*c
            right = mul[a, mul]             # (b, c) -> a*(b*c)
            bad = np.argwhere(left != right)
            violations.extend((a, int(b), int(c)) for b, c in bad)
    return GroupAxiomReport(violations, identity_ok, inverses_ok)


def make_cyclic(n: int) -> FiniteGroup:
    """Cyclic group of integers modulo n; element i is g^i."""
    if not 1 <= n <= MAX_MADE_ORDER:
        raise InvalidParameterError(f"cyclic group needs 1 <= n <= {MAX_MADE_ORDER}, got {n}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    labels = ["e"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
    gens = [1 % n] if n > 1 else [0]
    group = group_from_table(mul, gens, labels, f"Z_{n}")
    group.made = ("cyclic", n)
    return group


def make_symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters, elements in lexicographic one-line order.

    Generators are the adjacent transpositions.  Order capped at 6! = 720.
    Each permutation is encoded by its one-line form read as a base-n number,
    so the codes of the elements ascend.  The table composes all pairs by one
    fancy index, (sigma*tau)(x) = sigma(tau(x)), and maps the composed codes
    back to elements by one ``np.searchsorted``.
    """
    if not (1 <= n <= 6):
        raise InvalidParameterError("symmetric group supported for 1 <= n <= 6")
    elems = list(itertools.permutations(range(n)))
    arr = np.array(elems, dtype=np.int32)
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int32)
    codes = arr @ place
    mul = np.searchsorted(codes, arr[:, arr] @ place)
    swaps = np.tile(np.arange(n, dtype=np.int32), (n - 1, 1))
    for k in range(n - 1):
        swaps[k, [k, k + 1]] = k + 1, k
    # the adjacent transpositions; S_1's one generator is its identity
    gens = np.searchsorted(codes, swaps @ place).tolist() or [0]
    labels = ["(" + ",".join(str(x + 1) for x in p) + ")" for p in elems]
    group = group_from_table(mul, gens, labels, f"S_{n}")
    group.made = ("symmetric", n)
    return group


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of the regular n-gon: 2n elements s^f r^k, s r s = r^-1."""
    if not 3 <= n <= MAX_MADE_ORDER // 2:
        raise InvalidParameterError(
            f"dihedral group needs 3 <= n <= {MAX_MADE_ORDER // 2}, got {n}")
    # element index = f*n + k  for  s^f r^k;  s^f1 r^k1 s^f2 r^k2 = s^(f1+f2) r^(+-k1+k2)
    f1, k1, f2, k2 = np.ix_(*(np.arange(m, dtype=np.int64) for m in (2, n, 2, n)))
    mul = (((f1 + f2) % 2) * n + ((1 - 2 * f2) * k1 + k2) % n).reshape(2 * n, 2 * n)
    labels = [f"r^{k}" if k else "e" for k in range(n)]
    labels += [f"s·r^{k}" if k else "s" for k in range(n)]
    group = group_from_table(mul, [1, n], labels, f"D_{n}")
    group.made = ("dihedral", n)
    return group


GROUP_MAKERS = {"cyclic": make_cyclic, "symmetric": make_symmetric,
                "dihedral": make_dihedral}


def group_from_unitaries(mats, tol: Tolerance = DEFAULT_TOL, name="matrix-group") -> FiniteGroup:
    """Abstractify a finite closed set of unitaries into its Cayley table.

    Entries are matched by Frobenius distance; the set must be closed under
    multiplication and contain the identity.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = len(mats)

    def find(m):
        for i, c in enumerate(mats):
            if linalg.frob(m - c) <= tol.threshold(max(linalg.frob(c), 1.0)) * 10:
                return i
        raise InvalidParameterError("set of matrices is not closed under multiplication")

    mul = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            mul[i, j] = find(mats[i] @ mats[j])
    return group_from_table(mul, None, None, name)


# ---------------------------------------------------------------------------
# small-order identification

def _element_orders(g: FiniteGroup) -> np.ndarray:
    """The order of every element, from one power walk of the whole group."""
    idx = np.arange(g.order)
    orders = np.zeros(g.order, dtype=np.int64)
    x = idx
    for k in range(1, g.order + 1):
        orders[(x == g.identity) & (orders == 0)] = k
        if orders.all():
            return orders
        x = g.mul[x, idx]
    raise InvalidParameterError("table has an element with no finite order")


def _is_isomorphic(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Backtracking search for an isomorphism h -> g over generator images.

    Each candidate is extended to every element of h along its BFS tree and
    tested as a bijection that carries h's table onto g's.
    """
    if g.order != h.order or g.is_abelian() != h.is_abelian():
        return False
    g_orders, h_orders = _element_orders(g), _element_orders(h)
    if not np.array_equal(np.sort(g_orders), np.sort(h_orders)):
        return False
    tree = h.element_tree()
    candidates = [np.flatnonzero(g_orders == h_orders[s]) for s in h.generators]
    phi = np.empty(h.order, dtype=np.int64)
    phi[h.identity] = g.identity
    for img in itertools.product(*candidates):
        for f, e, gi in tree:
            phi[f] = g.mul[phi[e], img[gi]]
        if (len(np.unique(phi)) == g.order
                and np.array_equal(g.mul[np.ix_(phi, phi)], phi[h.mul])):
            return True
    return False


def identify_small_group(g: FiniteGroup) -> str:
    """Canonical name for small groups (order <= 24), or "unknown".

    Candidates are tried in a fixed preference order: Z_n, S_n (n <= 4),
    D_n (3 <= n <= 12), Z_a x Z_b (gcd(a, b) > 1).  The answer depends only
    on the isomorphism class of the table, never on its labeling.
    """
    n = g.order
    if n > 24:
        return "unknown"
    if n == 1:
        return "Z_1"
    return next((label for label, ref in _candidates(n) if _is_isomorphic(g, ref)),
                "unknown")


def _candidates(n: int):
    """The (name, group) candidates of order n, in preference order, each made when reached."""
    yield f"Z_{n}", make_cyclic(n)
    for k in (3, 4):
        if math.factorial(k) == n:
            yield f"S_{k}", make_symmetric(k)
    if n % 2 == 0 and 3 <= n // 2 <= 12:
        yield f"D_{n // 2}", make_dihedral(n // 2)
    for a in range(2, int(math.isqrt(n)) + 1):
        b = n // a
        if n % a == 0 and a <= b and math.gcd(a, b) > 1:
            yield f"Z_{a}xZ_{b}", _direct_product(make_cyclic(a), make_cyclic(b))


def _direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Elements a*m + b for (a, b), with m = h.order; one broadcast gives the table."""
    n, m = g.order, h.order
    mul = (g.mul[:, None, :, None] * m + h.mul[None, :, None, :]).reshape(n * m, n * m)
    gens = [a * m + h.identity for a in g.generators] + [g.identity * m + b for b in h.generators]
    return group_from_table(mul, gens, None, f"{g.name}x{h.name}")


# ---------------------------------------------------------------------------
# Lie algebras

@dataclass
class LieAlgebraBasis:
    """Real basis of Hermitian generators with group elements exp(-i theta H).

    ``generators`` is an ``(n, d, d)`` complex128 stack; a sequence of equal
    square matrices is stacked on construction.
    """

    generators: np.ndarray
    name: str = "lie-algebra"
    _structure: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        try:
            self.generators = np.asarray(self.generators, dtype=complex)
        except ValueError as exc:
            raise DimensionMismatchError(f"Lie algebra generators differ in shape: {exc}") from exc
        shape = self.generators.shape
        if len(shape) != 3 or shape[0] == 0 or shape[1] != shape[2]:
            raise DimensionMismatchError(
                f"Lie algebra generators must be a non-empty stack of square "
                f"matrices, got shape {shape}")
        for h in self.generators:
            if not linalg.is_hermitian(h):
                raise NotHermitianError("Lie algebra generators must be Hermitian")

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def carrier_dim(self) -> int:
        return self.generators[0].shape[0]

    def structure_constants(self) -> np.ndarray:
        """Real f with [X_i, X_j] = i sum_k f[i,j,k] X_k (least squares).

        A large residual means the basis is not closed; run
        :func:`lie_closure` first.
        """
        if self._structure is not None:
            return self._structure
        n = self.dim
        targets = linalg.hvec(_brackets(self.generators)).reshape(n * n, -1)
        sol, *_ = np.linalg.lstsq(linalg.hvec(self.generators).T, targets.T, rcond=None)
        self._structure = sol.T.reshape(n, n, n)
        return self._structure

    def closure_residual(self) -> float:
        """Max Frobenius distance of i[X_i, X_j] from the real span of the basis."""
        return _bracket_residual(self.structure_constants(), self.generators)


def _brackets(x: np.ndarray) -> np.ndarray:
    """The (n, n, d, d) stack of -i [X_i, X_j] for an (n, d, d) stack X."""
    xx = x[:, None] @ x
    return -1j * (xx - xx.transpose(1, 0, 2, 3))


def _bracket_residual(f: np.ndarray, x: np.ndarray) -> float:
    """max_ij ||-i [X_i, X_j] - sum_k f[i,j,k] X_k||_F over an (n, d, d) stack X."""
    return float(np.linalg.norm(_brackets(x) - np.tensordot(f, x, 1), axis=(2, 3)).max())


def lie_closure(seed, tol: Tolerance = DEFAULT_TOL, max_dim: int | None = None) -> LieAlgebraBasis:
    """Smallest real Lie algebra of Hermitian matrices containing the seeds.

    Repeatedly adjoins i[A, B] (Hermitian for Hermitian A, B) and
    re-orthonormalizes until the dimension stops growing.  The returned basis
    is orthonormal under Tr[A^dag B].
    """
    seed = [np.asarray(s, dtype=complex) for s in seed]
    if not seed:
        raise InvalidParameterError("need at least one seed generator")
    dims = {s.shape for s in seed}
    if len(dims) != 1 or any(s.shape[0] != s.shape[1] for s in seed):
        raise InvalidParameterError("seeds must be square matrices of equal size")
    for s in seed:
        if not linalg.is_hermitian(s, tol):
            raise NotHermitianError("seed generators must be Hermitian")

    d = seed[0].shape[0]
    cap = max_dim if max_dim is not None else d * d
    basis = linalg.orthonormalize_hermitian(seed, tol)
    while True:
        # i [A, B] for every pair, in itertools.combinations order.
        i, j = np.triu_indices(len(basis), 1)
        candidates = np.concatenate([basis, 1j * (basis[i] @ basis[j] - basis[j] @ basis[i])])
        new_basis = linalg.orthonormalize_hermitian(candidates, tol)
        if len(new_basis) == len(basis) or len(new_basis) >= cap:
            basis = new_basis
            break
        basis = new_basis
    return LieAlgebraBasis(basis, name=f"lie({len(basis)})")


def sample_lie_group_element(alg: LieAlgebraBasis, rng_seed: int, depth: int = 3) -> np.ndarray:
    """Product of ``depth`` one-parameter exponentials, deterministic per seed.

    Each factor is exp(-i theta H) with theta uniform in [0, 2 pi) and H drawn
    uniformly from the basis.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    rng = np.random.default_rng(rng_seed)
    d = alg.carrier_dim
    out = np.eye(d, dtype=complex)
    for _ in range(depth):
        k = int(rng.integers(alg.dim))
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        out = out @ linalg.exp_unitary(alg.generators[k], theta)
    return out
