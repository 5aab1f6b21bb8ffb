"""Collapsing machinery: instantiate universal variables with constants,
enumerate bounded collapsings, encode each collapsing as an existential CSP
over strategy-output variables (`collapsing_to_csp`), and decide a formula by
solving those CSPs: every one for the per-collapsing table
(`collapse_verdicts`), the widest ones up to the first false one for the
conjunction (`conjunction_verdict`).

CSP variables are integer indices; `csp_variable_names` names them for
printing, and `combine_csp` joins the CSPs into the one that `reduce` prints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .cspsolve import CspInstance, IndexedConstraint, solve_csp
from .errors import GuardrailError, StructuralError
from .model import Constraint, QuantifiedFormula

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


def csp_variable_names(col: Collapsing) -> list[str]:
    """A printable name for each variable of `collapsing_to_csp(col)`, in
    index order: the strategy output of x under an assignment to the kept
    universals before x, e.g. ``x@y1=0,y2=1``."""
    formula = col.origin
    kept = col.kept_universals
    names = []
    for x in formula.existential_vars:
        before = kept[: sum(u in kept for u in formula.universals_before[x])]
        for combo in itertools.product(range(formula.domain.size), repeat=len(before)):
            names.append(f"{x}@" + ",".join(f"{u}={v}" for u, v in zip(before, combo)))
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
    the possible strategy outputs; the CSP is satisfiable iff the collapsed
    formula is true. The collapsed formula itself is never built: the
    existential x owns d^m consecutive variables, one per assignment of the
    m kept universals before it in `itertools.product` order, and the
    variables of x come before those of every later existential. Each
    constraint is emitted once, in the order of its first occurrence."""
    formula = col.origin
    d = formula.domain.size
    kept = col.kept_universals
    width = len(kept)
    universal = set(formula.universal_vars)
    # The body reads its arguments from `values`, refilled for each
    # assignment t (a mixed-radix number) of the kept universals: a kept
    # universal at position i reads digit i, an existential after m kept
    # universals reads base + the first m digits.
    values: list[int] = []
    slot: dict[str | int, int] = {}
    kept_digits: list[tuple[int, int]] = []  # (slot, divisor)
    existential_prefixes: list[tuple[int, int, int]] = []  # (slot, base, divisor)
    base = 0
    for x in formula.existential_vars:
        m = sum(u in kept for u in formula.universals_before[x])
        slot[x] = len(values)
        values.append(base)
        if m:
            existential_prefixes.append((slot[x], base, d ** (width - m)))
        base += d**m
    for i, u in enumerate(kept):
        slot[u] = len(values)
        values.append(0)
        kept_digits.append((slot[u], d ** (width - 1 - i)))
    dynamic = {s for s, *_ in kept_digits + existential_prefixes}
    # Each constraint is emitted once, at its first occurrence: `emitted`
    # maps (relation id, args) to the constraint, in insertion order. A body
    # constraint that reads no changing slot is the same for every
    # assignment, so it is instantiated once; so is a repeated one.
    emitted: dict[tuple[int, tuple[int, ...]], IndexedConstraint] = {}
    body: dict[tuple, None] = {}
    for c in formula.body:
        slots = []
        for a in c.args:
            if a in universal and a not in slot:
                a = col.constant
            if a not in slot:
                slot[a] = len(values)
                values.append(~a)
            slots.append(slot[a])
        if dynamic.isdisjoint(slots):
            args = tuple(values[s] for s in slots)
            emitted[id(c.relation), args] = (c.relation, args)
        else:
            body[c.relation, tuple(slots)] = None
    getters = [
        (relation, id(relation),
         itemgetter(*slots) if len(slots) > 1 else lambda vals, s=slots[0]: (vals[s],))
        for relation, slots in body
    ]
    for t in range(d**width):
        for s, divisor in kept_digits:
            values[s] = ~(t // divisor % d)
        for s, start, divisor in existential_prefixes:
            values[s] = start + t // divisor
        for relation, rid, get in getters:
            args = get(values)
            emitted[rid, args] = (relation, args)
    constraints = list(emitted.values())
    return CspInstance(d, base, constraints)


def _solved(collapsings: Iterable[Collapsing]) -> Iterator[bool]:
    """Encode and solve each collapsing in turn, only when asked for the next
    verdict. The collapsings share no variable, so each is its own CSP; they
    share the compiled tables."""
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
