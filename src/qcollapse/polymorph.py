"""Polymorphism testing, operation composition, the closure kernel for
subuniverses of A^m and its callers (relation closure, and term-operation
generation up to an arity cap, which no verb calls: sink detection closes
the binary projections with the kernel directly), detectors for the named
operation classes, and the table sweep behind every polymorphism search.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import GuardrailError, StructuralError
from .model import Algebra, ConstraintLanguage, Operation, Relation
from .ops import dual_discriminator, projection_op

# k-row choices of one relation that a polymorphism check or sweep takes on,
# argument cells of the projection table a trace names, and argument cells of
# all the tables that one certificate's trace replays build
CHECK_CAP = 10_000_000
# cells one polymorphism table sweep fills
FILL_CAP = 10_000_000
# idempotent candidate tables of one arity that discovery sweeps
CANDIDATE_CAP = 100_000
# the highest arity that discovery sweeps
ARITY_CAP = 3
# term operations of all arities that one closure finds
TERM_COUNT_CAP = 2_000

# Construction trace for a term operation:
#   ("gen", i)        generator i of the algebra
#   ("proj", k, i)    arity-k projection onto coordinate i (1-based)
#   ("comp", outer, (inner, ...))  composition of traces
Trace = tuple


def polymorphism_failure(
    op: Operation, rel: Relation
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """The first witness (rows, image) with image outside the relation, in
    `itertools.product` order of the sorted rows, or None. GuardrailError
    when the relation has over CHECK_CAP k-row choices.

    A totally symmetric operation walks row multisets, as sorted choices:
    the image of a choice depends only on the multiset of its rows, and
    sorting a failing choice gives a failing choice no later in product
    order, so the first witness is the same."""
    if op.domain_size != rel.domain_size:
        raise StructuralError("operation and relation are over different domains")
    rows = rel.sorted_tuples()
    if len(rows) ** op.arity > CHECK_CAP:
        raise GuardrailError(
            f"{len(rows)}^{op.arity} tuple combinations exceed the cap of {CHECK_CAP}"
        )
    d = op.domain_size
    table = op.table
    if op.symmetric:
        choices = itertools.combinations_with_replacement(rows, op.arity)
    else:
        choices = itertools.product(rows, repeat=op.arity)
    for choice in choices:
        image = []
        for col in range(rel.arity):
            idx = 0
            for t in choice:
                idx = idx * d + t[col]
            image.append(table[idx])
        if tuple(image) not in rel.tuples:
            return choice, tuple(image)
    return None


def is_polymorphism(op: Operation, rel: Relation) -> bool:
    """True iff applying the operation coordinate-wise to any tuples of the
    relation lands back in the relation."""
    return polymorphism_failure(op, rel) is None


def is_polymorphism_of_language(op: Operation, language: ConstraintLanguage) -> bool:
    return all(is_polymorphism(op, r) for r in language.relations)


def op_image(op: Operation, sets: Sequence[Iterable[int]]) -> frozenset[int]:
    """Element-wise image f(B_1, ..., B_k).

    Each operation keeps the images it has computed, keyed by the tuple of
    argument frozensets: at most (2^d - 1)^k entries for nonempty sets, 343
    for a ternary operation on three elements. Callers holding such a tuple
    may read `op._images` directly and call here on a miss."""
    key = tuple(map(frozenset, sets))
    image = op._images.get(key)
    if image is None:
        if len(key) != op.arity:
            raise StructuralError(f"operation {op.name}: expected {op.arity} argument sets")
        image = op._images[key] = _compute_image(op, key)
    return image


def _compute_image(op: Operation, sets: tuple[frozenset[int], ...]) -> frozenset[int]:
    d = op.domain_size
    table = op.table
    out = set()
    for combo in itertools.product(*sets):
        idx = 0
        for a in combo:
            idx = idx * d + a
        out.add(table[idx])
    return frozenset(out)


@dataclass(frozen=True)
class OperationTags:
    projection: bool
    idempotent: bool
    semilattice: bool
    maltsev: bool
    majority: bool
    minority: bool
    dual_discriminator: bool
    near_unanimity: bool
    unit_element: int | None


def is_projection(op: Operation) -> bool:
    return any(
        all(value == args[i] for value, args in zip(op.table, op.inputs()))
        for i in range(op.arity)
    )


IDENTITIES = ("maltsev", "minority", "near_unanimity", "dual_discriminator", "unit")


def identity_cells(
    identity: str, d: int, k: int, unit: int = 0
) -> dict[tuple[int, ...], int] | None:
    """The cells an arity-k operation f on d elements holds when it satisfies
    the identity, as argument tuple -> required value, for all x and y:

      maltsev             f(x, x, y) = f(y, x, x) = y
      minority            f(x, x, y) = f(x, y, x) = f(y, x, x) = y
      near_unanimity      f(y, x, ..., x) = ... = f(x, ..., x, y) = x, at any
                          arity from 3; at arity 3 it is majority
      dual_discriminator  every cell of `ops.dual_discriminator(d)`
      unit                f(u, x) = f(x, u) = x for the element u = `unit`

    No two of an identity's cells clash, so the map is the whole identity.
    None when no arity-k operation satisfies it, or `unit` is not an element.
    """
    pairs = list(itertools.product(range(d), repeat=2))
    if identity == "maltsev" and k == 3:
        return {cell: y for x, y in pairs for cell in ((x, x, y), (y, x, x))}
    if identity == "minority" and k == 3:
        return {cell: y for x, y in pairs for cell in ((x, x, y), (x, y, x), (y, x, x))}
    if identity == "near_unanimity" and k >= 3:
        return {(x,) * p + (y,) + (x,) * (k - 1 - p): x for x, y in pairs for p in range(k)}
    if identity == "dual_discriminator" and k == 3:
        dd = dual_discriminator(d)
        return dict(zip(dd.inputs(), dd.table))
    if identity == "unit" and k == 2 and 0 <= unit < d:
        return {cell: x for x in range(d) for cell in ((unit, x), (x, unit))}
    if identity not in IDENTITIES:
        raise StructuralError(f"unknown identity {identity!r}")
    return None


@functools.lru_cache(maxsize=256)
def _cell_indices(
    identity: str, d: int, k: int, unit: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """`identity_cells` as (table indices, required values)."""
    cells = identity_cells(identity, d, k, unit)
    if cells is None:
        return None
    indices = tuple(sum(a * d**i for i, a in enumerate(reversed(args))) for args in cells)
    return indices, tuple(cells.values())


def satisfies(op: Operation, identity: str, unit: int = 0) -> bool:
    """The operation's table holds every cell of the identity."""
    cells = _cell_indices(identity, op.domain_size, op.arity, unit)
    return cells is not None and tuple(map(op.table.__getitem__, cells[0])) == cells[1]


def unit_element(op: Operation) -> int | None:
    """The element u with f(u, x) = f(x, u) = x for every x, when the
    operation is binary and has one; it has at most one."""
    return next((u for u in range(op.domain_size) if satisfies(op, "unit", u)), None)


def tag_operation(op: Operation) -> OperationTags:
    """Classify an operation by exhaustive identity checking over its table."""
    d = op.domain_size
    idempotent = op.is_idempotent()
    semilattice = False
    if op.arity == 2:
        commutative = all(
            op.table[op.index((x, y))] == op.table[op.index((y, x))]
            for x in range(d)
            for y in range(d)
        )
        associative = commutative and all(
            op.table[op.index((op.table[op.index((x, y))], z))]
            == op.table[op.index((x, op.table[op.index((y, z))]))]
            for x in range(d)
            for y in range(d)
            for z in range(d)
        )
        semilattice = idempotent and commutative and associative
    near_unanimity = satisfies(op, "near_unanimity")
    return OperationTags(
        projection=is_projection(op),
        idempotent=idempotent,
        semilattice=semilattice,
        maltsev=satisfies(op, "maltsev"),
        majority=near_unanimity and op.arity == 3,
        minority=satisfies(op, "minority"),
        dual_discriminator=satisfies(op, "dual_discriminator"),
        near_unanimity=near_unanimity,
        unit_element=unit_element(op),
    )


def compose(outer: Operation, inners: Sequence[Operation], name: str | None = None) -> Operation:
    """g(a) = outer(inner_1(a), ..., inner_n(a)); all inners share one arity."""
    if len(inners) != outer.arity:
        raise StructuralError(
            f"compose: {outer.name} has arity {outer.arity}, got {len(inners)} inner operations"
        )
    if not inners:
        raise StructuralError("compose: no inner operations")
    m = inners[0].arity
    d = outer.domain_size
    for g in inners:
        if g.arity != m:
            raise StructuralError("compose: inner operations must share one arity")
        if g.domain_size != d:
            raise StructuralError("compose: mixed domains")
    outer_table = outer.table
    table = []
    for cols in zip(*(g.table for g in inners)):
        oidx = 0
        for v in cols:
            oidx = oidx * d + v
        table.append(outer_table[oidx])
    label = name or f"{outer.name}({', '.join(g.name for g in inners)})"
    return Operation(label, m, d, tuple(table))


class ReplayBudget:
    """The argument cells that the trace replays sharing it build together,
    and apart from them the cells that the set images computed under it
    read, each against CHECK_CAP as it reads when the budget is made. The
    verifier gives one budget to all the replays and containment checks of a
    certificate."""

    def __init__(self) -> None:
        self.cap = CHECK_CAP
        self.cells = 0
        self.image_cells = 0

    def charge(self, cells: int) -> None:
        self.cells += cells
        if self.cells > self.cap:
            raise GuardrailError(
                f"trace replays read {self.cells} argument cells, "
                f"above the cap of {self.cap}"
            )

    def charge_image(self, op: Operation, sets: Sequence[frozenset[int]]) -> None:
        """Charge the k * |B_1| * ... * |B_k| argument cells that the image
        op(B_1, ..., B_k) reads."""
        self.image_cells += op.arity * math.prod(map(len, sets))
        if self.image_cells > self.cap:
            raise GuardrailError(
                f"set images read {self.image_cells} argument cells, "
                f"above the cap of {self.cap}"
            )


def replay_trace(algebra: Algebra, trace: Trace, budget: ReplayBudget | None = None) -> Operation:
    """Rebuild the operation a construction trace denotes, from the algebra's
    generators, projections, and composition. A projection whose table reads
    more than CHECK_CAP argument cells raises GuardrailError unbuilt. Every
    table is charged before it is built to `budget`, a fresh one when none is
    given: k*d^k cells for a projection pk.i, k*d^m for a k-ary operation
    over m-ary inners."""
    if budget is None:
        budget = ReplayBudget()
    kind = trace[0]
    if kind == "gen":
        return algebra.generators[trace[1]]
    if kind == "proj":
        d, k = algebra.domain.size, trace[1]
        # the table reads k*d^k argument cells; 2^k alone exceeds the cap
        # from this arity on, so d**k is computed only below it
        if (d > 1 and k >= CHECK_CAP.bit_length()) or k * d**k > CHECK_CAP:
            raise GuardrailError(
                f"projection p{k}.{trace[2]} reads {k}*{d}^{k} argument cells, "
                f"above the cap of {CHECK_CAP}"
            )
        budget.charge(k * d**k)
        return projection_op(d, k, trace[2])
    if kind == "comp":
        outer = replay_trace(algebra, trace[1], budget)
        inners = [replay_trace(algebra, t, budget) for t in trace[2]]
        if inners:
            budget.charge(outer.arity * algebra.domain.size ** inners[0].arity)
        return compose(outer, inners)
    raise StructuralError(f"unknown trace node {kind!r}")


def trace_to_str(trace: Trace) -> str:
    kind = trace[0]
    if kind == "gen":
        return f"g{trace[1]}"
    if kind == "proj":
        return f"p{trace[1]}.{trace[2]}"
    if kind == "comp":
        return "(" + " ".join([trace_to_str(trace[1])] + [trace_to_str(t) for t in trace[2]]) + ")"
    raise StructuralError(f"unknown trace node {kind!r}")


def parse_trace(text: str) -> Trace:
    """The trace `trace_to_str` writes. Replay, printing and hashing recurse
    once or twice per level, so a trace nested deeper than a quarter of the
    interpreter's recursion limit is a StructuralError, raised before any of
    them runs."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0
    depth_bound = sys.getrecursionlimit() // 4

    def atom(tok: str) -> Trace:
        if tok.startswith("g"):
            return ("gen", int(tok[1:]))
        if tok.startswith("p"):
            arity, coord = tok[1:].split(".")
            return ("proj", int(arity), int(coord))
        raise StructuralError(f"bad trace token {tok!r}")

    def parse(depth: int) -> Trace:
        nonlocal pos
        if pos >= len(tokens):
            raise StructuralError("truncated trace")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth == depth_bound:
                raise StructuralError(f"trace nests deeper than {depth_bound} compositions")
            outer = parse(depth + 1)
            inners = []
            while pos < len(tokens) and tokens[pos] != ")":
                inners.append(parse(depth + 1))
            if pos >= len(tokens):
                raise StructuralError("unclosed trace")
            pos += 1
            return ("comp", outer, tuple(inners))
        if tok == ")":
            raise StructuralError("unexpected ')' in trace")
        return atom(tok)

    out = parse(0)
    if pos != len(tokens):
        raise StructuralError("trailing tokens in trace")
    return out


@dataclass(frozen=True)
class TermOperationSet:
    """Term operations of an algebra discovered by closure up to an arity cap.

    `operations` is in discovery order; `traces` rebuilds each member from the
    generators. When `truncated` is set the closure hit its count cap and the
    set may be incomplete.
    """

    operations: tuple[Operation, ...]
    traces: Mapping[Operation, Trace]
    truncated: bool

    def of_arity(self, k: int) -> list[Operation]:
        return [f for f in self.operations if f.arity == k]


def _frontier_images(
    op: Operation,
    old: list[tuple[int, ...]],
    frontier: list[tuple[int, ...]],
    current: list[tuple[int, ...]],
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """One semi-naive round: (combo, image) for every combination of
    `op.arity` vectors from `current` (= `old` + nonempty `frontier`) that
    uses a frontier vector, where image applies the operation coordinate-wise.

    The first frontier argument sits at position p, earlier ones come from
    `old`, so each combination appears once. The row indices of all but the
    last argument are summed once per prefix, so each combination costs one
    vector addition and one table lookup.
    """
    d = op.domain_size
    size = len(frontier[0])
    getitem = op.table.__getitem__
    for p in range(op.arity):
        *heads, last = [old] * p + [frontier] + [current] * (op.arity - 1 - p)
        for head in itertools.product(*heads):
            base = [0] * size
            for h in head:
                base = [b * d + v for b, v in zip(base, h)]
            base = [b * d for b in base]
            for c in last:
                yield head + (c,), tuple(map(getitem, map(operator.add, base, c)))


@dataclass(frozen=True)
class Closure:
    """The vectors of A^m that seed vectors generate under operations applied
    coordinate-wise.

    `vectors` is in discovery order, seeds first. `provenance` maps each
    vector to the (operation index, argument vectors) that first produced it,
    or to None for a seed. `truncated` is set when the cap refused a vector,
    so the set may be incomplete.
    """

    vectors: tuple[tuple[int, ...], ...]
    provenance: Mapping[tuple[int, ...], tuple[int, tuple[tuple[int, ...], ...]] | None]
    truncated: bool


def close_vectors(
    ops: Sequence[Operation],
    seeds: Iterable[tuple[int, ...]],
    room: int,
    cap: int | None = None,
    stop: tuple[int, ...] | None = None,
) -> Closure:
    """The subuniverse the seeds generate, by semi-naive rounds: each round
    applies every operation, in order, to the combinations that use a vector
    found in the round before. It stops early once `room` vectors are found,
    as nothing new can appear then, once it holds `stop` (the seeds are
    always taken), and when `cap` refuses a vector, a seed included.
    """
    found: dict = {}
    truncated = False
    for s in seeds:
        if s in found:
            continue
        if cap is not None and len(found) >= cap:
            truncated = True
        else:
            found[s] = None
    current = list(found)
    frontier = current
    done = len(found) >= room or stop in found
    while frontier and not truncated and not done:
        frontier_set = set(frontier)
        old = [v for v in current if v not in frontier_set]
        fresh: list[tuple[int, ...]] = []
        for i, op in enumerate(ops):
            for combo, image in _frontier_images(op, old, frontier, current):
                if image in found:
                    continue
                if cap is not None and len(found) >= cap:
                    truncated = True
                    break
                found[image] = (i, combo)
                fresh.append(image)
                done = len(found) >= room or image == stop
                if done:
                    break
            if truncated or done:
                break
        current = current + fresh
        frontier = fresh
    return Closure(tuple(found), found, truncated)


def generate_term_operations(algebra: Algebra, arity_cap: int) -> TermOperationSet:
    """The term operations of each arity 1..arity_cap in turn: the closure of
    the arity-m projections and generators, as tables, under every generator.
    TERM_COUNT_CAP bounds the operations of all arities together.

    Composition never raises the arity above the cap because a composite's
    arity equals its inner operations' shared arity. An arity stops early once
    its operations fill every table the generators can produce: all tables,
    or all idempotent ones when every generator is idempotent (composition
    keeps idempotence), so nothing new could be found.
    """
    d = algebra.domain.size
    generators = algebra.generators
    idempotent = all(g.is_idempotent() for g in generators)
    operations: list[Operation] = []
    traces: dict[Operation, Trace] = {}
    truncated = False
    for m in range(1, arity_cap + 1):
        seeds = [(projection_op(d, m, i), ("proj", m, i)) for i in range(1, m + 1)]
        seeds += [(g, ("gen", gi)) for gi, g in enumerate(generators) if g.arity == m]
        named: dict[tuple[int, ...], tuple[Operation, Trace]] = {}
        for op, trace in seeds:
            named.setdefault(op.table, (op, trace))
        room = d ** (d**m - d) if idempotent else d ** (d**m)
        closure = close_vectors(
            generators, [op.table for op, _ in seeds], room, TERM_COUNT_CAP - len(operations)
        )
        truncated = truncated or closure.truncated
        by_table: dict[tuple[int, ...], Trace] = {}
        for table, made in closure.provenance.items():
            if made is None:
                op, trace = named[table]
            else:
                gi, combo = made
                op = Operation(f"t{m}.{len(operations)}", m, d, table)
                trace = ("comp", ("gen", gi), tuple(map(by_table.__getitem__, combo)))
            by_table[table] = trace
            operations.append(op)
            traces[op] = trace
    return TermOperationSet(tuple(operations), traces, truncated)


def relation_cells(rel: Relation, k: int) -> frozenset[tuple[int, ...]]:
    """The table-cell index tuples that the k-row choices of the relation
    read: choosing rows t_1, ..., t_k, coordinate j of the image is the cell
    at index t_1[j]*d^(k-1) + ... + t_k[j]. A k-ary operation preserves the
    relation iff its table maps every such tuple of cells to a row.

    Built one row at a time: the tuples for k rows are those for k-1 rows,
    shifted one place, plus a last row. Choices that read the same cells give
    one tuple, so each step extends only distinct tuples.

    Each relation keeps its tuples of every arity up to k in `rel._cells`
    (outside equality, hash and repr), and an arity is built from the kept
    one below it, so discovery builds each relation's tuples once per arity
    and nothing outlives the relation. Callers may read `rel._cells`
    directly and call here on a miss.
    """
    memo = rel._cells
    cells = memo.get(k)
    if cells is None:
        d = rel.domain_size
        rows = rel.sorted_tuples()
        cells = memo.setdefault(1, frozenset(rows))
        for j in range(2, k + 1):
            if j not in memo:
                memo[j] = frozenset({
                    tuple(map(operator.add, base, c))
                    for base in [[i * d for i in prefix] for prefix in cells]
                    for c in rows
                })
            cells = memo[j]
    return cells


@functools.lru_cache(maxsize=256)
def _forced_table(
    d: int, k: int, forced: tuple[tuple[tuple[int, ...], int], ...]
) -> tuple[tuple[int, ...], bool]:
    """The arity-k table holding each forced (argument tuple, value) entry,
    -1 at every free cell, and whether every entry is diagonal and holds its
    argument. A template's table is built once per domain size."""
    table = [-1] * d**k
    for args, value in forced:
        if len(args) != k or not all(0 <= a < d for a in args) or not 0 <= value < d:
            raise StructuralError("forced entry out of range")
        table[sum(a * d**i for i, a in enumerate(reversed(args)))] = value
    return tuple(table), all(args == (value,) * k for args, value in forced)


def polymorphism_tables(
    language: ConstraintLanguage,
    k: int,
    forced: Mapping[tuple[int, ...], int],
) -> Iterator[tuple[int, ...]]:
    """The tables of the arity-k polymorphisms that take the forced value at
    each forced argument tuple, in `itertools.product` order of the free
    cells, which are filled depth-first in index order, values ascending.

    Relations that hold every tuple are passed over. With no free cell the
    forced table is checked directly against every relation's cell tuples.
    Otherwise a relation's cell tuple is checked at the last free cell it
    reads, or once before the search if it reads only forced cells, unless
    these are diagonal cells holding their argument (then it maps a row onto
    itself). A cell whose values all fail jumps back to the last earlier free
    cell read by its checked tuples or passed up by the cells that jumped back
    to it (graph-based backjumping); a cell below which a table was found
    since it was entered steps back one cell. Only branches without a table
    are skipped, so the order holds. GuardrailError: before any setup, for a
    relation with over CHECK_CAP k-row choices; after FILL_CAP fills.
    """
    for n in (len(rel.tuples) for rel in language.relations):
        if n**k > CHECK_CAP:
            raise GuardrailError(f"{n}^{k} tuple combinations exceed the cap of {CHECK_CAP}")
    d = language.domain.size
    template, idempotent = _forced_table(d, k, tuple(forced.items()))
    free = [c for c, value in enumerate(template) if value < 0]
    if idempotent and not free:  # every tuple maps a row onto itself
        yield template
        return
    # a relation holding every tuple is preserved by every table
    relations = [rel for rel in language.relations if len(rel.tuples) < d**rel.arity]
    cell_sets = [rel._cells.get(k) or relation_cells(rel, k) for rel in relations]
    if not free:
        get = template.__getitem__
        if all(
            tuple(map(get, cells)) in rel.tuples
            for rel, rel_cells in zip(relations, cell_sets)
            for cells in rel_cells
        ):
            yield template
        return
    table = list(template)
    rank = [-1] * d**k  # position of each free cell in `free`
    for p, c in enumerate(free):
        rank[c] = p
    bit = [1 << r if r >= 0 else 0 for r in rank]
    # per free cell and relation, the cells of every tuple checked there, in
    # one flat getter whose result is cut into images of the relation's arity;
    # the last entry holds the tuples that read forced cells only
    checks: list[list[tuple]] = [[] for _ in range(len(free) + 1)]
    parents = [0] * len(checks)  # bitmask of the earlier free cells those tuples read
    for rel, rel_cells in zip(relations, cell_sets):
        attached: list[list[int]] = [[] for _ in checks]
        for cells in rel_cells:
            last = max(map(rank.__getitem__, cells))
            if last >= 0 or not idempotent:
                attached[last].extend(cells)
        for p, flat in enumerate(attached):
            if len(flat) == 1:
                flat *= 2  # a getter of one cell would return a bare value
            if flat:
                checks[p].append((operator.itemgetter(*flat), rel.arity, rel.tuples))
                parents[p] |= sum(map(bit.__getitem__, set(flat))) & ((1 << p) - 1)
    for getter, arity, rows in checks[-1]:
        if not rows.issuperset(zip(*[iter(getter(table))] * arity)):
            return
    induced = [0] * len(free)  # causes passed up by the cells that jumped back
    solved = 0  # the cells before this one have had a table found below them
    fills = 0
    p = 0
    while p >= 0:
        cell = free[p]
        value = table[cell] + 1
        if value == d:
            if p < solved:
                p -= 1
                continue
            causes = parents[p] | induced[p]
            p = causes.bit_length() - 1
            if p >= 0:
                induced[p] |= causes ^ (1 << p)
            continue
        fills += 1
        if fills > FILL_CAP:
            raise GuardrailError(f"the arity-{k} sweep filled more than {FILL_CAP} cells")
        table[cell] = value
        for getter, arity, rows in checks[p]:
            if not rows.issuperset(zip(*[iter(getter(table))] * arity)):
                break
        else:
            if p == len(free) - 1:
                yield tuple(table)
                solved = p + 1
            else:
                p += 1
                table[free[p]] = -1
                induced[p] = 0
                if p < solved:
                    solved = p


def polymorphisms_by_arity(language: ConstraintLanguage) -> Iterator[tuple[Operation, ...]]:
    """The idempotent polymorphisms of each arity 1..ARITY_CAP in turn: the
    sweep's tables with the diagonal forced, named `f{k}_{n}` with n counting
    every operation found before, projections and lower arities included.

    An arity with more than CANDIDATE_CAP idempotent tables raises
    GuardrailError after every lower arity has been yielded; so does a
    relation with more than CHECK_CAP k-row choices. A sweep fills under
    twice its candidate count, far below FILL_CAP.
    """
    d = language.domain.size
    found = 0
    for k in range(1, ARITY_CAP + 1):
        free_cells = d**k - d
        if d**free_cells > CANDIDATE_CAP:
            raise GuardrailError(
                f"{d}^{free_cells} idempotent arity-{k} candidates exceed the cap; "
                "use a targeted detector"
            )
        diagonal = {(a,) * k: a for a in range(d)}
        tables = list(polymorphism_tables(language, k, diagonal))
        yield tuple(Operation(f"f{k}_{found + i}", k, d, t) for i, t in enumerate(tables))
        found += len(tables)


def discover_polymorphisms(language: ConstraintLanguage) -> tuple[Operation, ...]:
    """All idempotent polymorphisms of arity <= ARITY_CAP, in one list.

    Raises GuardrailError when an arity has too many candidate tables; use the
    targeted detectors in `classify` for larger domains.
    """
    return tuple(itertools.chain(*polymorphisms_by_arity(language)))


def close_relation_under(rel: Relation, op: Operation) -> Relation:
    """Smallest superset of the relation invariant under the operation."""
    if rel.domain_size != op.domain_size:
        raise StructuralError("relation and operation are over different domains")
    closure = close_vectors((op,), rel.tuples, rel.domain_size**rel.arity)
    return Relation(rel.name, rel.arity, rel.domain_size, frozenset(closure.vectors))
