"""Brute-force game oracle: decides truth of quantified constraint formulas and
winnability against adversaries, and extracts/replays explicit strategies.

Evaluation walks the quantifier prefix as an alternating game tree with
memoization keyed on (prefix position, values of the still-relevant assigned
variables). Existential choices are tried in ascending element order, so
evaluation and strategy extraction are deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .errors import GuardrailError, StructuralError
from .model import EXISTS, FORALL, Constraint, QuantifiedFormula

DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class Adversary:
    """A tuple of nonempty element subsets, one per universal variable,
    ordered by quantifier prefix from outermost to innermost."""

    coords: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(frozenset(c) for c in self.coords))
        if any(not c for c in self.coords):
            raise StructuralError("adversary coordinates must be nonempty")

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.coords)

    def describe(self, full_size: int) -> str:
        parts = []
        for c in self.coords:
            if len(c) == full_size:
                parts.append("*")
            else:
                parts.append("{" + ",".join(str(v) for v in sorted(c)) + "}")
        return " ".join(parts)


def full_adversary(n: int, domain_size: int) -> Adversary:
    return Adversary((frozenset(range(domain_size)),) * n)


def constant_adversary(n: int, subset: frozenset[int]) -> Adversary:
    return Adversary((frozenset(subset),) * n)


@dataclass
class Strategy:
    """Responses for each existential variable, keyed by the values of the
    universal variables quantified before it (in prefix order)."""

    responses: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)

    def respond(self, var: str, context: tuple[int, ...]) -> int | None:
        return self.responses.get(var, {}).get(context)

    def dump(self) -> str:
        """Tabular debug dump, one line per (variable, context, value)."""
        lines = []
        for var in sorted(self.responses):
            for ctx in sorted(self.responses[var]):
                rendered = ",".join(str(v) for v in ctx)
                lines.append(f"{var} | {rendered} | {self.responses[var][ctx]}")
        return "\n".join(lines) + ("\n" if lines else "")


class _Plan:
    """Static evaluation plan: which constraints close at each depth and which
    assigned variables remain relevant to the future."""

    def __init__(self, formula: QuantifiedFormula):
        self.formula = formula
        prefix = formula.prefix
        pos = {v: i for i, (_, v) in enumerate(prefix)}
        m = len(prefix)
        # depth d = number of assigned prefix variables; a constraint closes at
        # depth max position of its variables + 1 (0 when constants only)
        self.checks_at: list[list[Constraint]] = [[] for _ in range(m + 1)]
        for c in formula.body:
            close = max((pos[v] + 1 for v in c.variables), default=0)
            self.checks_at[close].append(c)
        # live variables at depth d: assigned variables still occurring in a
        # constraint that closes strictly later
        needed: list[frozenset[str]] = [frozenset()] * (m + 1)
        acc: set[str] = set()
        for d in range(m - 1, -1, -1):
            acc |= {v for c in self.checks_at[d + 1] for v in c.variables}
            needed[d] = frozenset(acc)
        self.live_at: list[tuple[str, ...]] = []
        for d in range(m + 1):
            assigned = [v for _, v in prefix[:d]]
            self.live_at.append(tuple(v for v in assigned if v in needed[d]))


def _branch_sizes(formula: QuantifiedFormula, adversary: Adversary | None) -> list[list[int]]:
    """Candidate values per prefix position; universals draw from the adversary."""
    d = formula.domain.size
    out: list[list[int]] = []
    u = 0
    for q, _ in formula.prefix:
        if q == FORALL and adversary is not None:
            out.append(sorted(adversary.coords[u]))
            u += 1
        else:
            out.append(list(range(d)))
    return out


def _check_cap(branches: Sequence[Sequence[int]], node_cap: int):
    est = math.prod(len(b) for b in branches) if branches else 1
    if est > node_cap:
        raise GuardrailError(
            f"estimated game tree of {est} assignments exceeds the cap of {node_cap}"
        )


class _GameEvaluator:
    def __init__(self, formula: QuantifiedFormula, adversary: Adversary | None, node_cap: int):
        if adversary is not None and len(adversary) != len(formula.universal_vars):
            raise StructuralError(
                f"adversary length {len(adversary)} != {len(formula.universal_vars)} universals"
            )
        self.formula = formula
        self.plan = _Plan(formula)
        self.branches = _branch_sizes(formula, adversary)
        _check_cap(self.branches, node_cap)
        self.memo: dict[tuple[int, tuple[int, ...]], bool] = {}
        self.env: dict[str, int] = {}

    def _closed_ok(self, depth: int) -> bool:
        return all(c.holds(self.env) for c in self.plan.checks_at[depth])

    def wins(self, depth: int) -> bool:
        prefix = self.formula.prefix
        if depth == len(prefix):
            return True
        key = (depth, tuple(self.env[v] for v in self.plan.live_at[depth]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        q, var = prefix[depth]
        result = q == FORALL
        for val in self.branches[depth]:
            self.env[var] = val
            ok = self._closed_ok(depth + 1) and self.wins(depth + 1)
            del self.env[var]
            if q == EXISTS and ok:
                result = True
                break
            if q == FORALL and not ok:
                result = False
                break
        self.memo[key] = result
        return result

    def run(self) -> bool:
        return self._closed_ok(0) and self.wins(0)


def evaluate_truth(formula: QuantifiedFormula, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff the formula holds under standard first-order semantics."""
    return _GameEvaluator(formula, None, node_cap).run()


def winnable(
    formula: QuantifiedFormula, adversary: Adversary, node_cap: int = DEFAULT_NODE_CAP
) -> bool:
    """True iff the existential player can handle every universal assignment
    the adversary permits."""
    return _GameEvaluator(formula, adversary, node_cap).run()


def induced_assignments(formula: QuantifiedFormula, adversary: Adversary) -> Iterator[dict[str, int]]:
    """All universal-variable assignments the adversary allows, in ascending order."""
    uvars = formula.universal_vars
    if len(adversary) != len(uvars):
        raise StructuralError("adversary length mismatch")
    pools = [sorted(c) for c in adversary.coords]
    for combo in itertools.product(*pools):
        yield dict(zip(uvars, combo))


def extract_strategy(
    formula: QuantifiedFormula, adversary: Adversary, node_cap: int = DEFAULT_NODE_CAP
) -> Strategy | None:
    """A winning strategy against the adversary, or None when there is none.

    Ties break toward the smallest element, and responses are keyed only on the
    preceding universal values: the replayed game is deterministic, so earlier
    existential values are themselves functions of those universals.
    """
    ev = _GameEvaluator(formula, adversary, node_cap)
    if not ev.run():
        return None
    strategy = Strategy({x: {} for x in formula.existential_vars})
    prefix = formula.prefix
    ubefore = formula.universals_before

    def walk(depth: int, env: dict[str, int]):
        if depth == len(prefix):
            return
        q, var = prefix[depth]
        if q == FORALL:
            u_index = formula.universal_vars.index(var)
            for val in sorted(adversary.coords[u_index]):
                env[var] = val
                walk(depth + 1, env)
                del env[var]
        else:
            context = tuple(env[u] for u in ubefore[var])
            known = strategy.responses[var].get(context)
            if known is None:
                for val in range(formula.domain.size):
                    ev.env = env
                    env[var] = val
                    if ev._closed_ok(depth + 1) and ev.wins(depth + 1):
                        known = val
                        del env[var]
                        break
                    del env[var]
                assert known is not None, "winnable subtree must offer a value"
                strategy.responses[var][context] = known
            env[var] = known
            walk(depth + 1, env)
            del env[var]

    walk(0, {})
    return strategy


def check_strategy(
    formula: QuantifiedFormula, adversary: Adversary, strategy: Strategy
) -> bool:
    """Replay: the strategy must be defined and satisfy every constraint for
    every universal assignment the adversary allows."""
    ubefore = formula.universals_before
    for tau in induced_assignments(formula, adversary):
        env = dict(tau)
        for x in formula.existential_vars:
            context = tuple(tau[u] for u in ubefore[x])
            val = strategy.respond(x, context)
            if val is None:
                return False
            env[x] = val
        if not all(c.holds(env) for c in formula.body):
            return False
    return True
