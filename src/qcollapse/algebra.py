"""Structural analysis of finite idempotent algebras: subalgebras, congruences,
quotients, factors, G-sets, and the enclosure/connectivity predicates used by
the collapsibility classifier.

All global enumerations are restricted to universes of at most
MAX_ENUM_UNIVERSE elements so every sweep stays exhaustive.

Subalgebras, congruences, restrictions, factors, the G-set witness and the
enclosure, connectivity, strict-simplicity and pair-minimality predicates are
computed once per `Algebra` object and arguments and kept on it (`_cached`):
the classifiers, the certificate planner and the analysis report ask the same
object the same questions many times within one call. The restriction to the
whole universe is the algebra itself.

The G-set witness is found on the generator tables, without building any
factor but the witness: each partition of each subuniverse is tested for a
generator-wise block permutation of one coordinate (`_gset_blocks`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import GuardrailError, StructuralError
from .model import Algebra, Domain, Operation
from .polymorph import close_vectors, op_image

MAX_ENUM_UNIVERSE = 6


@dataclass(frozen=True)
class SubalgebraInfo:
    universe: frozenset[int]
    proper: bool
    maximal_proper: bool
    nontrivial: bool


@dataclass(frozen=True)
class SubalgebraSet:
    entries: tuple[SubalgebraInfo, ...]

    def universes(self) -> list[frozenset[int]]:
        return [e.universe for e in self.entries]

    def maximal_proper(self) -> list[frozenset[int]]:
        return [e.universe for e in self.entries if e.maximal_proper]


@dataclass(frozen=True)
class Congruence:
    """A partition of the universe whose induced equivalence relation is
    invariant under all generators."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        canon = tuple(sorted((frozenset(b) for b in self.blocks), key=lambda b: min(b)))
        object.__setattr__(self, "blocks", canon)
        if any(not b for b in canon):
            raise StructuralError("congruence blocks must be nonempty")
        universe = sorted(v for b in canon for v in b)
        if len(universe) != len(set(universe)):
            raise StructuralError("congruence blocks must be disjoint")

    def block_of(self, element: int) -> int:
        for i, b in enumerate(self.blocks):
            if element in b:
                return i
        raise StructuralError(f"element {element} not covered by the congruence")


@dataclass(frozen=True)
class Factor:
    """A homomorphic image of a subalgebra: the quotient of the restriction of
    the algebra to `universe` by `congruence` (stated on re-indexed elements)."""

    universe: frozenset[int]
    congruence: Congruence
    quotient: Algebra
    # block i of the quotient corresponds to this set of original elements
    blocks: tuple[frozenset[int], ...]


def _cached(compute):
    """`compute(algebra, *args)`, computed once per algebra object and
    arguments.

    The answers live in a dict in the instance's `__dict__`, where
    `cached_property` keeps its values, so they die with the algebra. The
    cache is per object, not per value: generator names are not part of
    `Operation` equality, yet quotients are named after them. Every answer is
    immutable and returned as stored, and a computation that raises caches
    nothing. An answer that starts with the algebra itself (`restrict` to the
    whole universe) is not kept: the algebra would then refer to itself and
    wait, with all it caches, for the cycle collector.
    """

    @functools.wraps(compute)
    def cached(algebra: Algebra, *args):
        cache = algebra.__dict__.setdefault("_structure", {})
        key = (compute, *args)
        try:
            return cache[key]
        except KeyError:
            value = compute(algebra, *args)
            if not (type(value) is tuple and value and value[0] is algebra):
                cache[key] = value
            return value

    return cached


def _argument_indices(arity: int, d: int, values: Sequence[int]) -> list[int]:
    """Table indices, over a d-element domain, of every argument tuple drawn
    from `values`, in `itertools.product` order of those values."""
    indices = [0]
    for _ in range(arity):
        indices = [i * d + v for i in indices for v in values]
    return indices


def _check_universe(algebra: Algebra):
    if algebra.domain.size > MAX_ENUM_UNIVERSE:
        raise GuardrailError(
            f"universe of size {algebra.domain.size} exceeds the enumeration cap "
            f"of {MAX_ENUM_UNIVERSE}"
        )


def is_closed(algebra: Algebra, subset: frozenset[int]) -> bool:
    d = algebra.domain.size
    members = sorted(subset)
    return all(
        subset.issuperset([g.table[i] for i in _argument_indices(g.arity, d, members)])
        for g in algebra.generators
    )


def generated_subalgebra(algebra: Algebra, seed: Sequence[int]) -> frozenset[int]:
    """Least generator-closed superset of the seed."""
    elements = sorted(set(seed))
    if not elements:
        raise StructuralError("seed must be nonempty")
    if any(not (0 <= v < algebra.domain.size) for v in elements):
        raise StructuralError("seed element out of range")
    closure = close_vectors(algebra.generators, [(v,) for v in elements], algebra.domain.size)
    return frozenset(v for (v,) in closure.vectors)


@_cached
def enumerate_subalgebras(algebra: Algebra) -> SubalgebraSet:
    """All generator-closed nonempty subsets, with propriety/maximality flags."""
    _check_universe(algebra)
    n = algebra.domain.size
    closed = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            fs = frozenset(subset)
            if is_closed(algebra, fs):
                closed.append(fs)
    entries = []
    proper = [u for u in closed if len(u) < n]
    for u in closed:
        is_proper = len(u) < n
        maximal = is_proper and not any(u < v for v in proper)
        entries.append(SubalgebraInfo(u, is_proper, maximal, len(u) >= 2))
    return SubalgebraSet(tuple(entries))


def _partitions(items: Sequence[int]) -> Iterator[list[set[int]]]:
    """All partitions, in restricted-growth order."""
    items = list(items)
    if not items:
        yield []
        return

    def rec(i: int, blocks: list[set[int]]):
        if i == len(items):
            yield [set(b) for b in blocks]
            return
        for b in blocks:
            b.add(items[i])
            yield from rec(i + 1, blocks)
            b.remove(items[i])
        blocks.append({items[i]})
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _preserves_partition(op: Operation, block_of: dict[int, int]) -> bool:
    # single-coordinate moves suffice: the relation is transitive, so general
    # tuple pairs decompose into moves of one argument to its block's least
    # element and back
    d = op.domain_size
    least: dict[int, int] = {}
    for v in range(d):
        least.setdefault(block_of[v], v)
    moves = [(v, least[block_of[v]]) for v in range(d) if least[block_of[v]] != v]
    if not moves:
        return True
    image = [block_of[v] for v in op.table]
    size = len(image)
    stride = 1
    for _ in range(op.arity):
        # indices whose argument at this position is 0
        bases = [i for i in range(size) if i // stride % d == 0]
        for v, lead in moves:
            at_v, at_lead = v * stride, lead * stride
            for i in bases:
                if image[i + at_v] != image[i + at_lead]:
                    return False
        stride *= d
    return True


@_cached
def enumerate_congruences(algebra: Algebra) -> tuple[Congruence, ...]:
    """Every partition of the universe preserved by all generators."""
    _check_universe(algebra)
    out = []
    for blocks in _partitions(range(algebra.domain.size)):
        block_of = {v: i for i, b in enumerate(blocks) for v in b}
        if all(_preserves_partition(g, block_of) for g in algebra.generators):
            out.append(Congruence(tuple(frozenset(b) for b in blocks)))
    return tuple(out)


def quotient(algebra: Algebra, congruence: Congruence) -> Algebra:
    """The block algebra; verifies each generator is well-defined on blocks."""
    blocks = congruence.blocks
    d = algebra.domain.size
    universe = sorted(v for b in blocks for v in b)
    if universe != list(range(d)):
        raise StructuralError("congruence does not partition the universe")
    block_of = [0] * d
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    reps = [min(b) for b in blocks]
    q = len(blocks)
    gens = []
    for g in algebra.generators:
        image = [block_of[v] for v in g.table]
        table = [image[i] for i in _argument_indices(g.arity, d, reps)]
        # well-definedness: every choice of representatives must agree, so
        # each entry of g lands where the quotient sends its arguments' blocks
        block_index = _argument_indices(g.arity, q, block_of)
        if [table[j] for j in block_index] != image:
            raise StructuralError(
                f"quotient of {g.name} is not well-defined; the partition is "
                "not a congruence"
            )
        gens.append(Operation(f"{g.name}~", g.arity, q, tuple(table)))
    return Algebra(Domain(q), tuple(gens))


@_cached
def restrict(algebra: Algebra, universe: frozenset[int]) -> tuple[Algebra, tuple[int, ...]]:
    """Restriction to a closed subset, re-indexed to 0..|B|-1.

    Returns the subalgebra and the tuple mapping new indices to old elements.
    The whole universe gives the algebra itself, which differs from its
    re-indexed copy only in being the object that already holds its answers.
    """
    d = algebra.domain.size
    if universe == frozenset(range(d)):
        return algebra, tuple(range(d))
    if not is_closed(algebra, universe):
        raise StructuralError("subset is not closed under the generators")
    old = sorted(universe)
    new_of = {v: i for i, v in enumerate(old)}
    gens = []
    for g in algebra.generators:
        table = [new_of[g.table[i]] for i in _argument_indices(g.arity, d, old)]
        gens.append(Operation(g.name, g.arity, len(old), tuple(table)))
    return Algebra(Domain(len(old)), tuple(gens)), tuple(old)


@_cached
def enumerate_factors(algebra: Algebra) -> tuple[Factor, ...]:
    """Quotients of every subalgebra by every congruence of its restriction;
    includes the algebra itself via the identity congruence on the full
    universe."""
    _check_universe(algebra)
    out = []
    for universe in enumerate_subalgebras(algebra).universes():
        sub, old = restrict(algebra, universe)
        for cong in enumerate_congruences(sub):
            out.append(_factor(universe, sub, old, cong))
    return tuple(out)


def _factor(
    universe: frozenset[int], sub: Algebra, old: Sequence[int], cong: Congruence
) -> Factor:
    blocks = tuple(frozenset(old[i] for i in b) for b in cong.blocks)
    return Factor(universe, cong, quotient(sub, cong), blocks)


def canonical_form(algebra: Algebra) -> tuple:
    """Relabeling-invariant fingerprint: the least generator-table profile over
    all permutations of the universe. Used to deduplicate factors in reports;
    witnesses keep their original labels."""
    d = algebra.domain.size
    best = None
    for perm in itertools.permutations(range(d)):
        inverse = [0] * d
        for a, image in enumerate(perm):
            inverse[image] = a
        profile = []
        for g in algebra.generators:
            # entry i of the relabeled table is perm(g(preimage of i's arguments))
            preimages = _argument_indices(g.arity, d, inverse)
            profile.append((g.arity, tuple(perm[g.table[i]] for i in preimages)))
        key = (d, tuple(sorted(profile)))
        if best is None or key < best:
            best = key
    return best


def _permutation_projection_coord(op: Operation) -> tuple[int, tuple[int, ...]] | None:
    """A coordinate i and permutation pi with op(a_1..a_k) = pi(a_i), if any."""
    d = op.domain_size
    for i in range(op.arity):
        pi: list[int | None] = [None] * d
        ok = True
        for args in itertools.product(range(d), repeat=op.arity):
            v = op.table[op.index(args)]
            if pi[args[i]] is None:
                pi[args[i]] = v
            elif pi[args[i]] != v:
                ok = False
                break
        if ok and sorted(pi) == list(range(d)):
            return i + 1, tuple(pi)  # type: ignore[arg-type]
    return None


def is_gset(algebra: Algebra) -> bool:
    """True iff the universe has at least two elements and every generator is a
    permutation applied to one argument.

    That shape is preserved by composition, so the generator-level check
    settles the property for all term operations.
    """
    if algebra.domain.size < 2:
        return False
    return all(_permutation_projection_coord(g) is not None for g in algebra.generators)


@_cached
def has_gset_factor(algebra: Algebra) -> tuple[bool, Factor | None]:
    """The first factor, in `enumerate_factors` order, whose quotient is a
    G-set; returns it as the witness when one exists.

    The search runs on the generator tables and builds the witness alone
    (see `_gset_blocks`).
    """
    for universe in enumerate_subalgebras(algebra).universes():
        blocks = _gset_blocks(algebra, sorted(universe))
        if blocks is not None:
            sub, old = restrict(algebra, universe)
            return True, _factor(universe, sub, old, Congruence(blocks))
    return False, None


def _gset_blocks(algebra: Algebra, members: list[int]) -> tuple[frozenset[int], ...] | None:
    """The first partition of the closed set `members`, in `_partitions`
    order and re-indexed to 0..|B|-1, whose quotient is a G-set.

    A partition t of B into at least two blocks passes when every generator
    g has a coordinate i and a block permutation pi with g(a)/t = pi(a_i/t)
    for every a in B^k. A passing partition is a congruence (a t b
    coordinatewise gives a_i t b_i, so g(a) t g(b)) and its quotient is a
    G-set; every G-set factor passes. The test reads only the distinct pairs (a_i, g(a)), at
    most |B|^2 per generator and coordinate, computed once per subuniverse.
    """
    m = len(members)
    if m < 2:
        return None
    d = algebra.domain.size
    new_of = {v: i for i, v in enumerate(members)}
    pairs_by_generator = []
    for g in algebra.generators:
        values = [new_of[g.table[i]] for i in _argument_indices(g.arity, d, members)]
        pairs_by_generator.append([
            {(j // m ** (g.arity - 1 - i) % m, v) for j, v in enumerate(values)}
            for i in range(g.arity)
        ])
    for blocks in _partitions(range(m)):
        if len(blocks) < 2:
            continue
        block_of = [0] * m
        for b, block in enumerate(blocks):
            for v in block:
                block_of[v] = b
        if all(
            any(_permutes_blocks(pairs, block_of, len(blocks)) for pairs in coordinates)
            for coordinates in pairs_by_generator
        ):
            return tuple(frozenset(block) for block in blocks)
    return None


def _permutes_blocks(pairs: set[tuple[int, int]], block_of: list[int], count: int) -> bool:
    """The pairs (x, y), read on blocks, form a permutation of the `count`
    blocks (every block occurs as some x)."""
    image: dict[int, int] = {}
    for x, y in pairs:
        bx, by = block_of[x], block_of[y]
        if image.setdefault(bx, by) != by:
            return False
    return len(set(image.values())) == count


@dataclass(frozen=True)
class PredicateResult:
    """A boolean verdict with an explicit flag for vacuous (one-element) cases."""

    holds: bool
    trivial: bool = False

    def __bool__(self) -> bool:
        return self.holds


@_cached
def is_strictly_simple(algebra: Algebra) -> PredicateResult:
    """Simple (only trivial congruences) with every proper subalgebra
    one-element."""
    _check_universe(algebra)
    if algebra.domain.size == 1:
        return PredicateResult(True, trivial=True)
    for cong in enumerate_congruences(algebra):
        if len(cong.blocks) not in (1, algebra.domain.size):
            return PredicateResult(False)
    for info in enumerate_subalgebras(algebra).entries:
        if info.proper and info.nontrivial:
            return PredicateResult(False)
    return PredicateResult(True)


@_cached
def is_pair_minimal(algebra: Algebra) -> bool:
    """Every two-element subset generates a subalgebra with no proper
    non-trivial subalgebra."""
    _check_universe(algebra)
    if algebra.domain.size < 2:
        raise StructuralError("pair minimality needs at least two elements")
    # a subset of a closed B is closed in B exactly when it is closed in the
    # algebra, so the algebra's own subuniverses (listed by size) answer for
    # every generated B: the first one holding a pair is the one it generates
    closed = enumerate_subalgebras(algebra).universes()
    for pair in itertools.combinations(range(algebra.domain.size), 2):
        generated = next(u for u in closed if u.issuperset(pair))
        if any(len(c) >= 2 and c < generated for c in closed):
            return False
    return True


@_cached
def is_enclosed(algebra: Algebra) -> bool:
    """Images of tuples of maximal proper subalgebras stay inside some maximal
    proper subalgebra.

    Checking generators decides the property for all term operations:
    projections send any tuple of maximal subalgebras into one of them, and a
    composite's image is contained in its outer operation's image of the inner
    containments.
    """
    _check_universe(algebra)
    maximal = enumerate_subalgebras(algebra).maximal_proper()
    for g in algebra.generators:
        for combo in itertools.product(maximal, repeat=g.arity):
            image = op_image(g, combo)
            if not any(image <= m for m in maximal):
                return False
    return True


@_cached
def is_fully_connected(algebra: Algebra) -> PredicateResult:
    """The overlap graph of maximal proper subalgebras is connected."""
    _check_universe(algebra)
    if algebra.domain.size == 1:
        return PredicateResult(True, trivial=True)
    maximal = enumerate_subalgebras(algebra).maximal_proper()
    if len(maximal) <= 1:
        return PredicateResult(True, trivial=len(maximal) == 0)
    reached = {0}
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(len(maximal)):
            if j not in reached and maximal[i] & maximal[j]:
                reached.add(j)
                frontier.append(j)
    return PredicateResult(len(reached) == len(maximal))


def disjoint_maximal_congruence(algebra: Algebra) -> Congruence | None:
    """When the algebra is enclosed and its maximal proper subalgebras are
    pairwise disjoint and cover the universe, the partition they form is a
    congruence; it is returned after an explicit re-check."""
    _check_universe(algebra)
    if not is_enclosed(algebra):
        return None
    maximal = enumerate_subalgebras(algebra).maximal_proper()
    if len(maximal) < 2:
        return None
    covered: set[int] = set()
    for m in maximal:
        if covered & m:
            return None
        covered |= m
    if covered != set(range(algebra.domain.size)):
        return None
    block_of = {v: i for i, b in enumerate(maximal) for v in b}
    for g in algebra.generators:
        if not _preserves_partition(g, block_of):
            raise StructuralError(
                "internal consistency check failed: the disjoint maximal-subalgebra "
                "partition of an enclosed algebra is expected to be a congruence"
            )
    return Congruence(tuple(maximal))
