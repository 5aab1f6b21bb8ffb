"""Complete finite-domain CSP solver for existential instances.

Backtracking with generalized arc consistency on an integer core. Variables
are indices, a domain is an int bitmask (bit v set while value v remains),
and every domain change is logged on a trail that backtracking unwinds.
Each constraint is compiled once per (relation, pattern of constants and
repeated variables) into the value rows of its distinct variables, after
compact-table GAC (Demeulenaere et al., CP 2016); the revision of a compiled
table under one tuple of domains is computed once and remembered for the
rest of the call. Variables are picked by smallest remaining domain (ties by
index) and values are tried in ascending order, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from .errors import GuardrailError
from .model import Relation

# search nodes one solve may visit
NODE_CAP = 10_000_000


# A constraint is (relation, args): an argument is a variable index (>= 0)
# or ~c (< 0) for the constant c.
IndexedConstraint = tuple[Relation, tuple[int, ...]]


@dataclass(frozen=True)
class CspInstance:
    """Existential-only conjunction of constraints over the variables
    0 .. variable_count - 1, each ranging over 0 .. domain_size - 1."""

    domain_size: int
    variable_count: int
    constraints: Sequence[IndexedConstraint]


class _Table:
    """A relation restricted to one pattern: the rows of values its distinct
    variables may take, and the revisions computed so far."""

    __slots__ = ("rows", "revised")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows
        # tuple of domains -> None (no row left) or the (position, new domain)
        # pairs that shrink
        self.revised: dict[tuple[int, ...], tuple[tuple[int, int], ...] | None] = {}

    def revise(self, doms: tuple[int, ...]) -> tuple[tuple[int, int], ...] | None:
        supported = [0] * len(doms)
        for row in self.rows:
            for value, dom in zip(row, doms):
                if not dom >> value & 1:
                    break
            else:
                for i, value in enumerate(row):
                    supported[i] |= 1 << value
        if not supported[0]:
            return None
        return tuple(
            (i, new) for i, (new, dom) in enumerate(zip(supported, doms)) if new != dom
        )


def _compile(relation: Relation, pattern: tuple[int, ...], width: int) -> _Table:
    rows = set()
    for t in relation.tuples:
        row = [-1] * width
        for value, p in zip(t, pattern):
            if p < 0:
                if value != ~p:
                    break
            elif row[p] < 0:
                row[p] = value
            elif row[p] != value:
                break
        else:
            rows.add(tuple(row))
    return _Table(tuple(sorted(rows)))


def solve_csp(instance: CspInstance, tables: dict | None = None) -> list[int] | None:
    """The value of each variable in a satisfying assignment, or None when
    there is none.

    `tables` holds the compiled tables; pass one dict to several calls to
    share them. The collapse loop behind `collapse.collapse_verdicts` and
    `collapse.conjunction_verdict` shares one across the collapsings of a
    formula.
    """
    domain_size, variable_count, constraints = (
        instance.domain_size, instance.variable_count, instance.constraints
    )
    if tables is None:
        tables = {}
    dom = [(1 << domain_size) - 1] * variable_count
    seen: set = set()
    scopes: list[tuple[int, ...]] = []
    compiled: list[_Table] = []
    for relation, args in constraints:
        scope: list[int] = []
        pattern = []
        for a in args:
            if a < 0:
                pattern.append(a)
            elif a in scope:
                pattern.append(scope.index(a))
            else:
                pattern.append(len(scope))
                scope.append(a)
        key = (relation, tuple(pattern))
        table = tables.get(key)
        if table is None:
            table = tables[key] = _compile(relation, key[1], len(scope))
        if len(scope) < 2:
            if not table.rows:
                return None
            if scope:
                # a unary constraint only narrows the starting domain
                v = scope[0]
                dom[v] &= sum(1 << row[0] for row in table.rows)
                if not dom[v]:
                    return None
            continue
        entry = (tuple(scope), table)
        if entry not in seen:
            seen.add(entry)
            scopes.append(entry[0])
            compiled.append(table)

    watch: list[list[int]] = [[] for _ in range(variable_count)]
    for ci, scope in enumerate(scopes):
        for v in scope:
            watch[v].append(ci)
    getters = [itemgetter(*scope) for scope in scopes]
    queued = [True] * len(scopes)
    trail: list[tuple[int, int]] = []

    def propagate(queue: list[int]) -> bool:
        while queue:
            ci = queue.pop()
            table = compiled[ci]
            doms = getters[ci](dom)
            try:
                changes = table.revised[doms]
            except KeyError:
                changes = table.revised[doms] = table.revise(doms)
            if changes is None:
                queued[ci] = False
                for other in queue:
                    queued[other] = False
                queue.clear()
                return False
            scope = scopes[ci]
            for i, new in changes:
                v = scope[i]
                trail.append((v, dom[v]))
                dom[v] = new
                for other in watch[v]:
                    if not queued[other]:
                        queued[other] = True
                        queue.append(other)
            # a revised table is consistent until one of its domains shrinks
            queued[ci] = False
        return True

    if not propagate(list(range(len(scopes)))):
        return None
    nodes = 0
    stack: list[list[int]] = []  # [variable, values left to try, trail mark]
    while True:
        nodes += 1
        if nodes > NODE_CAP:
            raise GuardrailError(f"CSP search exceeded {NODE_CAP} nodes")
        var, smallest = -1, domain_size + 1
        for v, d in enumerate(dom):
            if d & (d - 1):
                size = d.bit_count()
                if size < smallest:
                    var, smallest = v, size
                    if size == 2:  # no open domain is smaller
                        break
        if var < 0:
            values = [d.bit_length() - 1 for d in dom]
            # ~c indexes the constant c from the end of `lookup`
            lookup = values + list(range(domain_size - 1, -1, -1))
            assert all(
                tuple(map(lookup.__getitem__, args)) in relation.tuples
                for relation, args in constraints
            )
            return values
        stack.append([var, dom[var], len(trail)])
        while stack:
            frame = stack[-1]
            var, left, mark = frame
            while len(trail) > mark:
                v, old = trail.pop()
                dom[v] = old
            if not left:
                stack.pop()
                continue
            low = left & -left
            frame[1] = left ^ low
            trail.append((var, dom[var]))
            dom[var] = low
            queue = watch[var][:]
            for ci in queue:
                queued[ci] = True
            if propagate(queue):
                break
        else:
            return None
