"""Collapsing machinery: instantiate universal variables with constants,
enumerate bounded collapsings, encode each collapsing as an existential CSP
over strategy-output variables (`collapsing_to_csp`), and decide a formula by
solving those CSPs: every one for the per-collapsing table
(`collapse_verdicts`), the widest ones up to the first false one for the
conjunction (`conjunction_verdict`).

The encoder reads what is fixed per formula from the formula's `body_plan`,
made once for all its collapsings, and one walk over the prefix per
collapsing lays out its variables. CSP variables are integer indices;
`csp_variable_names` names them from the same walk for printing, and
`combine_csp` joins the CSPs into the one that `reduce` prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, Mapping, Sequence

from .cspsolve import CspInstance, IndexedConstraint, solve_csp
from .errors import GuardrailError, StructuralError
from .model import EXISTS, Constraint, QuantifiedFormula

# constraints the collapse encoding may emit, over every collapsing of a request
ENCODING_CAP = 10_000_000


@dataclass(frozen=True)
class Collapsing:
    """A formula with all universal variables outside `kept_universals`
    instantiated to `constant`."""

    origin: QuantifiedFormula
    kept_universals: tuple[str, ...]
    constant: int

    @cached_property
    def result(self) -> QuantifiedFormula:
        substitution = {
            v: self.constant
            for v in self.origin.universal_vars
            if v not in self.kept_universals
        }
        return instantiate_universals(self.origin, substitution)


def instantiate_universals(
    formula: QuantifiedFormula, substitution: Mapping[str, int]
) -> QuantifiedFormula:
    """Remove the substituted universal quantifiers and replace every bound
    occurrence in the body with the given constant."""
    universal = set(formula.universal_vars)
    for var, val in substitution.items():
        if var not in universal:
            raise StructuralError(f"{var!r} is not a universal variable")
        if not (0 <= val < formula.domain.size):
            raise StructuralError(f"constant {val} out of range for {var!r}")
    prefix = tuple(entry for entry in formula.prefix if entry[1] not in substitution)
    body = tuple(
        Constraint(
            c.relation,
            tuple(substitution.get(a, a) if isinstance(a, str) else a for a in c.args),
        )
        for c in formula.body
    )
    return QuantifiedFormula(formula.domain, prefix, body)


def enumerate_collapsings(
    formula: QuantifiedFormula, j: int, constant: int
) -> list[Collapsing]:
    """One collapsing per subset U' of universal variables with |U'| <= j,
    ordered by subset size then lexicographically by position."""
    if j < 0:
        raise StructuralError("collapse width must be >= 0")
    uvars = formula.universal_vars
    if uvars and not (0 <= constant < formula.domain.size):
        raise StructuralError(f"constant {constant} out of range for {uvars[0]!r}")
    return [
        Collapsing(formula, tuple(uvars[i] for i in kept), constant)
        for size in range(min(j, len(uvars)) + 1)
        for kept in itertools.combinations(range(len(uvars)), size)
    ]


def _distinct_collapsings(
    formula: QuantifiedFormula, j: int, constants: Iterable[int]
) -> list[Collapsing]:
    """The collapsings for each constant in turn, keeping the first of those
    with equal resulting formulas. Two collapsings with the same kept set
    and different constants give the same formula exactly when every
    universal variable the body mentions is kept."""
    universal = set(formula.universal_vars)
    in_body = {a for c in formula.body for a in c.args if a in universal}
    seen: set[tuple[tuple[str, ...], int | None]] = set()
    out = []
    for a in constants:
        for col in enumerate_collapsings(formula, j, a):
            key = (col.kept_universals, None if in_body.issubset(col.kept_universals) else a)
            if key not in seen:
                seen.add(key)
                out.append(col)
    return out


def enumerate_j_collapsings(formula: QuantifiedFormula, j: int) -> list[Collapsing]:
    """Union over all constants, deduplicated by the fully substituted formula."""
    return _distinct_collapsings(formula, j, formula.domain.elements())


def _prefix_layout(col: Collapsing) -> tuple[list[tuple[int, int, int]], list[int], int]:
    """One walk over the prefix: each existential's (prefix position, first
    variable, number m of kept universals before it), the prefix positions
    of the kept universals, and the number of variables. The existential
    owns d^m consecutive variables from its first, one per assignment of the
    m kept universals before it in `itertools.product` order, and they come
    before those of every later existential."""
    formula = col.origin
    d = formula.domain.size
    kept = set(col.kept_universals)
    existentials: list[tuple[int, int, int]] = []
    kept_positions: list[int] = []
    base = 0
    for p, (q, v) in enumerate(formula.prefix):
        if q == EXISTS:
            m = len(kept_positions)
            existentials.append((p, base, m))
            base += d**m
        elif v in kept:
            kept_positions.append(p)
    return existentials, kept_positions, base


def csp_variable_names(col: Collapsing) -> list[str]:
    """A printable name for each variable of `collapsing_to_csp(col)`, in
    index order: the strategy output of x under an assignment to the kept
    universals before x, e.g. ``x@y1=0,y2=1``."""
    prefix = col.origin.prefix
    existentials, kept_positions, _ = _prefix_layout(col)
    names = []
    for p, _, m in existentials:
        before = [prefix[k][1] for k in kept_positions[:m]]
        for combo in itertools.product(range(col.origin.domain.size), repeat=m):
            names.append(f"{prefix[p][1]}@" + ",".join(f"{u}={v}" for u, v in zip(before, combo)))
    return names


def combine_csp(instances: Sequence[CspInstance], domain_size: int) -> CspInstance:
    """Variable-disjoint union: member k's variables follow those of members
    0 .. k-1, so the union is satisfiable iff every member is."""
    constraints: list[IndexedConstraint] = []
    offset = 0
    for inst in instances:
        if inst.domain_size != domain_size:
            raise StructuralError("cannot combine CSP instances over different domains")
        constraints.extend(
            (relation, tuple(a + offset if a >= 0 else a for a in args))
            for relation, args in inst.constraints
        )
        offset += inst.variable_count
    return CspInstance(domain_size, offset, constraints)


def encoding_size(formula: QuantifiedFormula, j: int, constants: int) -> int:
    """An upper bound on the constraints `collapsing_to_csp` emits for every
    collapsing of width <= j under `constants` source constants: each kept
    set of s universals instantiates the body once per assignment of its d^s
    values. The encoder emits fewer: no constraint twice, and each body
    constraint once per assignment of only the kept universals it reads,
    directly or through the existentials after them."""
    n = len(formula.universal_vars)
    d = formula.domain.size
    per_constant = sum(comb(n, s) * d**s for s in range(min(j, n) + 1))
    return constants * per_constant * max(len(formula.body), 1)


def relevant_collapsings(
    formula: QuantifiedFormula,
    j: int,
    source: Iterable[int] | None,
) -> list[Collapsing]:
    """The (j, a)-collapsings for a in `source`, or all j-collapsings when
    `source` is None; deduplicated by resulting formula.

    The encoding emits up to |A|^min(j, universals) copies of each constraint,
    so a total over every collapsing (`encoding_size`) above ENCODING_CAP is
    refused before any is built.
    """
    if source is None:
        constants: Sequence[int] = formula.domain.elements()
    else:
        constants = sorted(set(source))
        for a in constants:
            if not (0 <= a < formula.domain.size):
                raise StructuralError(f"source element {a} out of range")
    total = encoding_size(formula, j, len(constants))
    if total > ENCODING_CAP:
        raise GuardrailError(
            f"the collapse encoding would emit {total} constraints, "
            f"above the cap of {ENCODING_CAP}"
        )
    return _distinct_collapsings(formula, j, constants)


def collapsing_to_csp(col: Collapsing) -> CspInstance:
    """Encode the collapsed formula as an existential CSP whose variables are
    the possible strategy outputs, laid out by `_prefix_layout`; the CSP is
    satisfiable iff the collapsed formula is true. The collapsed formula
    itself is never built: the formula's `body_plan`, made once for all its
    collapsings, reads each constraint's arguments from one value array.
    Each constraint is emitted once, in the order of its first occurrence."""
    formula = col.origin
    plan = formula.body_plan
    d = formula.domain.size
    existentials, kept_positions, variable_count = _prefix_layout(col)
    width = len(kept_positions)
    # The array holds ~c at the slot of each constant c and at every
    # universal that is not kept, and for each assignment t (a mixed-radix
    # number) of the kept universals: ~digit i at the i-th kept universal,
    # and base + the first m digits at an existential after m kept ones.
    values = [~col.constant] * len(formula.prefix) + list(plan.constants)
    kept_digits = [(p, d ** (width - 1 - i)) for i, p in enumerate(kept_positions)]
    existential_prefixes = []  # (position, base, divisor)
    for p, base, m in existentials:
        values[p] = base
        if m:
            existential_prefixes.append((p, base, d ** (width - m)))
    dynamic = set(kept_positions).union(p for p, *_ in existential_prefixes)
    # Before the first assignment each kept universal holds a number above
    # every variable, so the arguments read name each variable and constant
    # apart. A constraint that reads no changing position is the same for
    # every assignment and is emitted first; the others are kept once per
    # relation value and arguments read. `emitted` maps (relation id, args)
    # to the constraint, in insertion order.
    for i, p in enumerate(kept_positions):
        values[p] = variable_count + i
    emitted: dict[tuple[int, tuple[int, ...]], IndexedConstraint] = {}
    moving = {}  # (relation value, args read) -> (relation, getter)
    for relation, value_class, slots, get in plan.constraints:
        args = get(values)
        if dynamic.isdisjoint(slots):
            emitted[id(relation), args] = (relation, args)
        else:
            moving.setdefault((value_class, args), (relation, get))
    for t in range(d**width):
        for p, divisor in kept_digits:
            values[p] = ~(t // divisor % d)
        for p, start, divisor in existential_prefixes:
            values[p] = start + t // divisor
        for relation, get in moving.values():
            args = get(values)
            emitted[id(relation), args] = (relation, args)
    return CspInstance(d, variable_count, list(emitted.values()))


def _solved(collapsings: Iterable[Collapsing]) -> Iterator[bool]:
    """Encode and solve each collapsing in turn, only when asked for the next
    verdict. The collapsings share no variable, so each is its own CSP; they
    share the solver's `tables`, so a constraint that recurs across them is
    compiled and wired once."""
    tables: dict = {}
    for col in collapsings:
        yield solve_csp(collapsing_to_csp(col), tables) is not None


def collapse_verdicts(
    formula: QuantifiedFormula,
    j: int,
    source: Iterable[int] | None = None,
) -> list[tuple[Collapsing, bool]]:
    """Per-collapsing truth of every relevant collapsing."""
    collapsings = relevant_collapsings(formula, j, source)
    return list(zip(collapsings, _solved(collapsings)))


def conjunction_verdict(collapsings: Sequence[Collapsing]) -> bool:
    """Whether every collapsing of `relevant_collapsings` is true, deciding
    only the widest ones, in order, up to the first false one.

    Instantiating a universal keeps a true formula true, so a collapsing is
    true when one with the same constant and a superset of its kept
    universals is. Every collapsing has such a superset of the widest size
    min(j, universals), and a widest one dropped as a duplicate has the
    formula of one that was kept.
    """
    width = max((len(col.kept_universals) for col in collapsings), default=0)
    return all(_solved(col for col in collapsings if len(col.kept_universals) == width))
