"""Game oracle: decides the truth of quantified constraint formulas as a game
between the existential and universal players, and replays explicit strategies
against adversaries.

Each call compiles the body once onto prefix positions. A constraint closes at
its last variable in prefix order; a lazily filled table maps the values of its
other variables to the bitmask of values the closing variable may take, with
constants and repeated variables folded in. Once those other variables are
assigned, the mask is ANDed into the closing variable's running mask and later
undone through a trail (forward checking). A branch is lost as soon as an
existential's mask empties or a universal's mask drops any value, since the
universal player would pick that value. Past the last position where a
constraint becomes ready no mask changes, and the masks already leave every
player a legal move, so the game from there on is won.

The search runs on an explicit stack, so prefix depth is bounded by memory and
not by Python's recursion limit. Existentials try their remaining values in
ascending element order, so evaluation is deterministic. The one guardrail
counts the nodes the search opens (memo misses before the settled position)
and refuses once the count passes the node cap.

Results are memoized on the residual state, the part of the search state that
the rest of the game can still see (formula caching): the prefix position r,
the values of the assigned variables that a constraint not yet ready still
reads, and the running masks of the open positions at or after r, those that
close a constraint which is already ready. A value is read up to the position
whose assignment makes its last constraint ready, not up to that constraint's
closing position: from then on the constraint lives on in the closing mask.
The memo is used only from the first position where some assigned value is no
longer read; before it the key holds the whole assignment, of which the masks
are a function, and one search never repeats that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator

from .errors import GuardrailError, StructuralError
from .model import FORALL, QuantifiedFormula

# nodes one game search may open: `evaluate_truth`'s default
DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class Adversary:
    """A tuple of nonempty element subsets, one per universal variable,
    ordered by quantifier prefix from outermost to innermost."""

    coords: tuple[frozenset[int], ...]

    def __post_init__(self):
        coords = tuple(map(frozenset, self.coords))
        if not all(coords):
            raise StructuralError("adversary coordinates must be nonempty")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(self.coords)


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


class _Supports(dict):
    """The lazily filled table of one constraint shape: maps the values of the
    other variables (a scalar for one, else a tuple in first-occurrence order)
    to the bitmask of values the closing variable may take."""

    __slots__ = ("tuples", "template", "domain_size")

    def __init__(self, tuples, template: tuple[tuple[int, int], ...], domain_size: int):
        super().__init__()
        self.tuples = tuples
        # per argument: (0, constant), (1, index among the other variables)
        # or (2, 0) for the closing variable
        self.template = template
        self.domain_size = domain_size

    def __missing__(self, key) -> int:
        given = key if isinstance(key, tuple) else (key,)
        mask = 0
        for v in range(self.domain_size):
            row = tuple(
                x if kind == 0 else given[x] if kind == 1 else v for kind, x in self.template
            )
            if row in self.tuples:
                mask |= 1 << v
        self[key] = mask
        return mask


def _no_items(_seq) -> tuple:
    return ()


def _getter(positions):
    return itemgetter(*positions) if positions else _no_items


class _Game:
    """One formula compiled onto prefix positions, with the search state
    (values, running masks, trail, memo, nodes opened) of one call."""

    def __init__(self, formula: QuantifiedFormula, node_cap: int):
        prefix = formula.prefix
        m = len(prefix)
        d = formula.domain.size
        full = (1 << d) - 1
        self.node_cap = node_cap
        self.nodes = 0
        self.forall = forall = [q == FORALL for q, _ in prefix]
        # a universal's mask must keep every value, an existential's only some
        self.need = need = [full if fa else 0 for fa in forall]
        self.masks = masks = [full] * m
        # ready[r]: (closing position, key of the other values, table) of the
        # constraints whose other variables all sit before position r
        self.ready = ready = [[] for _ in range(m + 1)]
        # last[q]: the last position whose assignment makes ready a constraint
        # that reads the value at q; from last[q] + 1 on that value is not read
        last = list(range(m))
        pos = {v: i for i, (_, v) in enumerate(prefix)}
        tables: dict = {}
        doomed = False
        for c in formula.body:
            if not c.variables:
                doomed |= c.args not in c.relation.tuples
                continue
            at = [pos[v] for v in c.variables]
            close = max(at)
            at.remove(close)
            template = []
            for a in c.args:
                if isinstance(a, int):
                    template.append((0, a))
                elif pos[a] == close:
                    template.append((2, 0))
                else:
                    template.append((1, at.index(pos[a])))
            template = tuple(template)
            table = tables.get((id(c.relation), template))
            if table is None:
                table = _Supports(c.relation.tuples, template, d)
                tables[id(c.relation), template] = table
            if not at:
                masks[close] &= table[()]
                doomed |= not masks[close] or masks[close] & need[close] != need[close]
                continue
            fire = max(at)
            for q in at:
                if last[q] < fire:
                    last[q] = fire
            ready[fire + 1].append((close, itemgetter(*at), table))
        self.doomed = doomed
        # past the last position where a constraint becomes ready no mask
        # changes, and the masks already give each existential a value and
        # each universal every value: the rest of the game is won
        self.settled = max((r for r in range(m + 1) if ready[r]), default=0)
        self.vals = [0] * m
        self.pending = [0] * m
        self.trail: list[tuple[int, int]] = []
        self.memo: dict[tuple, bool] = {}
        # from memo_from on some assigned value is no longer read; the memo
        # key at r holds the assigned values still read at or after r and the
        # masks of the positions at or after r that a ready constraint closes
        self.memo_from = memo_from = min(last, default=0) + 1
        self.keys: list = [None] * m
        live: list[int] = []
        opened: list[int] = []
        # a position opens once and stays open up to itself
        ever_opened: set[int] = set()
        for r in range(1, self.settled):
            live = [q for q in live if last[q] >= r]
            if last[r - 1] >= r:
                live.append(r - 1)
            opened = [p for p in opened if p >= r]
            for p, _, _ in ready[r]:
                if p not in ever_opened:
                    ever_opened.add(p)
                    opened.append(p)
            if r >= memo_from:
                self.keys[r] = (_getter(live), _getter(opened))

    def run(self) -> bool:
        return not self.doomed and self.wins()

    def wins(self) -> bool:
        """Value of the game; leaves the masks as it found them. Raises
        GuardrailError once it has opened more than `node_cap` nodes."""
        settled, forall, need, ready = self.settled, self.forall, self.need, self.ready
        vals, masks, pending, trail = self.vals, self.masks, self.pending, self.trail
        memo, keys, memo_from = self.memo, self.keys, self.memo_from
        node_cap, nodes = self.node_cap, self.nodes
        frames: list[tuple[int, tuple | None, int]] = []  # (position, memo key, trail mark)
        at = 0
        while True:
            # enter the node at position `at`: decided at once, or opened
            key = None
            if at >= settled:
                result = True
            else:
                result = None
                if at >= memo_from:
                    read_vals, read_masks = keys[at]
                    key = (at, read_vals(vals), read_masks(masks))
                    result = memo.get(key)
                if result is None:
                    nodes += 1
                    if nodes > node_cap:
                        raise GuardrailError(f"game search opened more than {node_cap} nodes")
                    frames.append((at, key, len(trail)))
                    pending[at] = masks[at]
            if not frames:
                self.nodes = nodes
                return result
            while True:
                top, key, mark = frames[-1]
                if result is None:  # open the top node's next child
                    bits = pending[top]
                    if not bits:
                        result = forall[top]  # every value tried without a cut
                    else:
                        low = bits & -bits
                        pending[top] = bits ^ low
                        vals[top] = low.bit_length() - 1
                        for p, keyof, table in ready[top + 1]:
                            old = masks[p]
                            new = old & table[keyof(vals)]
                            if new != old:
                                trail.append((p, old))
                                masks[p] = new
                                if not new or new & need[p] != need[p]:
                                    break
                        else:
                            at = top + 1
                            break
                        result = False  # the pruning lost this child
                        continue
                else:  # a child of the top node is decided
                    while len(trail) > mark:
                        p, old = trail.pop()
                        masks[p] = old
                    if result == forall[top]:
                        result = None
                        continue
                frames.pop()
                if key is not None:
                    memo[key] = result
                if not frames:
                    self.nodes = nodes
                    return result


def evaluate_truth(formula: QuantifiedFormula, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff the formula holds under standard first-order semantics."""
    return _Game(formula, node_cap).run()


def check_strategy(
    formula: QuantifiedFormula, adversary: Adversary, strategy: Strategy
) -> bool:
    """Replay: the strategy must be defined and satisfy every constraint for
    every universal assignment the adversary allows, taken in ascending order."""
    uvars = formula.universal_vars
    if len(adversary) != len(uvars):
        raise StructuralError("adversary length mismatch")
    ubefore = formula.universals_before
    for combo in itertools.product(*(sorted(c) for c in adversary.coords)):
        env = dict(zip(uvars, combo))
        for x in formula.existential_vars:
            val = strategy.respond(x, tuple(env[u] for u in ubefore[x]))
            if val is None:
                return False
            env[x] = val
        if not all(c.holds(env) for c in formula.body):
            return False
    return True
