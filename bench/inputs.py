"""Seeded input generation for the three workloads.

Every input is drawn from `random.Random` seeded by (seed, workload, round), so
the same seed gives the same files. Each round of a workload has the same
make-up of item classes (the tables `SOLVE_MIX`, `SCALE_MIX`, `CLASSIFY_MIX`);
only the draws inside each class depend on the seed. The program's own
`corpus` module is not used.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field

import reference

# ---------------------------------------------------------------------------
# Boolean languages
# ---------------------------------------------------------------------------


def _rel(arity: int, pred) -> tuple[int, frozenset]:
    return arity, frozenset(t for t in itertools.product((0, 1), repeat=arity) if pred(*t))


_F = _rel(1, lambda a: a == 0)
_T = _rel(1, lambda a: a == 1)

BOOLEAN_LANGUAGES = {
    # AND-closed: the ternary Horn clause y1 & y2 -> x
    "horn": {"H": _rel(3, lambda a, b, c: not (a and b) or c), "F": _F, "T": _T},
    # OR-closed: the dual clause a | b | !c
    "dualhorn": {"D": _rel(3, lambda a, b, c: a or b or not c), "F": _F, "T": _T},
    # majority-closed: all three binary clause shapes
    "2cnf": {
        "O": _rel(2, lambda a, b: a or b),
        "I": _rel(2, lambda a, b: not a or b),
        "N": _rel(2, lambda a, b: not (a and b)),
    },
    # minority-closed: three-variable parity
    "affine": {
        "X": _rel(3, lambda a, b, c: a ^ b ^ c == 0),
        "Y": _rel(3, lambda a, b, c: a ^ b ^ c == 1),
    },
    # single binary relations with 17-18 idempotent polymorphisms up to arity 3
    "impl": {"I": _rel(2, lambda a, b: not a or b)},
    "or": {"O": _rel(2, lambda a, b: a or b)},
}


@dataclass
class Item:
    """One input file and what the benchmark needs to check the program's
    answer on it."""

    cls: str  # item class, e.g. "solve/horn/true"
    verb: str  # solve | classify | analyze
    text: str
    info: dict = field(default_factory=dict)
    # (prefix, body) of each formula over the item's language that
    # solve-oracle also decides; for solve items, the item's own formula
    formulas: list = field(default_factory=list)


def render(d: int, language: dict, prefix=None, body=None, ops=None) -> str:
    """The program's instance/algebra text format; elements are named 0..d-1."""
    out = [f"domain {d} " + " ".join(str(a) for a in range(d))]
    for name, (arity, tuples) in language.items():
        out.append(f"relation {name} {arity}")
        out.extend("  " + " ".join(map(str, t)) for t in sorted(tuples))
    for name, (arity, table) in (ops or {}).items():
        out.append(f"op {name} {arity}")
        for args in itertools.product(range(d), repeat=arity):
            out.append(f"  {' '.join(map(str, args))} -> {reference.apply(d, table, args)}")
    if prefix is not None:
        quantifiers = " ".join(f"{q} {v}" for q, v in prefix)
        atoms = " & ".join(
            f"{name}({', '.join(str(a) for a in args)})" for name, args in body
        )
        out.append(f"formula {quantifiers} : {atoms}")
    return "\n".join(out) + "\n"


def random_formula(
    rng: random.Random, language: dict, n_vars: tuple[int, int], max_universals: int,
    n_constraints: tuple[int, int],
) -> tuple[list, list]:
    names = [f"v{i}" for i in range(rng.randint(*n_vars))]
    prefix, universals = [], 0
    for name in names:
        if universals < max_universals and rng.random() < 0.4:
            prefix.append(("forall", name))
            universals += 1
        else:
            prefix.append(("exists", name))
    rels = sorted(language)
    body = []
    for _ in range(rng.randint(*n_constraints)):
        rel = rng.choice(rels)
        body.append((rel, tuple(rng.choice(names) for _ in range(language[rel][0]))))
    return prefix, body


def formula_with_verdict(rng: random.Random, d: int, language: dict, want: bool, **shape):
    """Draw random formulas until one has the wanted truth value under the
    reference evaluator."""
    for _ in range(1000):
        prefix, body = random_formula(rng, language, **shape)
        if reference.evaluate(d, language, prefix, body) == want:
            return prefix, body
    raise RuntimeError(f"no formula with verdict {want} in 1000 draws")


def _rng(seed: int, workload: str, round_no: int) -> random.Random:
    return random.Random(f"{seed}/{workload}/{round_no}")


# ---------------------------------------------------------------------------
# solve: desk-size formulas over six classic languages
# ---------------------------------------------------------------------------

# (language, verdict, items per round)
SOLVE_MIX = [
    ("horn", True, 3), ("horn", False, 3),
    ("dualhorn", True, 3), ("dualhorn", False, 2),
    ("2cnf", True, 2), ("2cnf", False, 1),
    ("affine", True, 1), ("affine", False, 2),
    ("impl", True, 1), ("impl", False, 1),
    ("or", True, 1),
]


def solve_round(seed: int, round_no: int) -> list[Item]:
    rng = _rng(seed, "solve", round_no)
    items = []
    for lang, want, count in SOLVE_MIX:
        language = BOOLEAN_LANGUAGES[lang]
        for _ in range(count):
            prefix, body = formula_with_verdict(
                rng, 2, language, want, n_vars=(5, 9), max_universals=4, n_constraints=(3, 7)
            )
            items.append(Item(
                f"solve/{lang}/{str(want).lower()}", "solve", render(2, language, prefix, body),
                info={"language": language}, formulas=[(prefix, body)],
            ))
    return items


# ---------------------------------------------------------------------------
# scale: many universals, cheap-certificate languages
# ---------------------------------------------------------------------------


def star(rng: random.Random, lang: str, n: int, want: bool) -> tuple[list, list]:
    """forall y1..yn exists x: /\\ R(y_a, y_b, x) over a random Hamiltonian
    path of the y's. Horn (R = H) is true with x = 1 and false once F(x) is
    added; dual-Horn (R = D) is true with x = 0 and false once T(x) is added."""
    ys = [f"y{i}" for i in range(1, n + 1)]
    order = ys[:]
    rng.shuffle(order)
    rel, pin = ("H", "F") if lang == "horn" else ("D", "T")
    body = [(rel, (a, b, "x")) for a, b in zip(order, order[1:])]
    if not want:
        body.append((pin, ("x",)))
    return [("forall", y) for y in ys] + [("exists", "x")], body


def chain(rng: random.Random, lang: str, n: int, want: bool) -> tuple[list, list]:
    """exists x0 forall y1 exists x1 ... forall yn exists xn (2n+1 variables).

    affine: X(x_{i-1}, y_i, x_i) sets x_i = x_{i-1} xor y_i, so it is true;
    the false variant adds X(y_a, y_b, x0), asking x0 to predict y_a xor y_b.
    2cnf: I(y_i, x_i) & I(x_{i-1}, x_i) is true with every x = 1; the false
    variant adds N(y_a, x_a), which y_a = 1 contradicts.
    """
    prefix = [("exists", "x0")]
    for i in range(1, n + 1):
        prefix += [("forall", f"y{i}"), ("exists", f"x{i}")]
    a, b = sorted(rng.sample(range(1, n + 1), 2))
    if lang == "affine":
        body = [("X", (f"x{i - 1}", f"y{i}", f"x{i}")) for i in range(1, n + 1)]
        if not want:
            body.append(("X", (f"y{a}", f"y{b}", "x0")))
    else:
        body = [("I", (f"y{i}", f"x{i}")) for i in range(1, n + 1)]
        body += [("I", (f"x{i - 1}", f"x{i}")) for i in range(1, n + 1)]
        if not want:
            body.append(("N", (f"y{a}", f"x{a}")))
    rng.shuffle(body)
    return prefix, body


# (family, language, universals, verdict, items per round)
SCALE_MIX = [
    ("star", "horn", 14, True, 1), ("star", "horn", 12, True, 1),
    ("star", "horn", 10, True, 1), ("star", "horn", 14, False, 1),
    ("star", "dualhorn", 13, True, 1), ("star", "dualhorn", 11, True, 1),
    ("star", "dualhorn", 13, False, 1),
    ("chain", "affine", 11, True, 1), ("chain", "affine", 9, False, 1),
    ("chain", "2cnf", 11, True, 1), ("chain", "2cnf", 10, False, 1),
]


def scale_round(seed: int, round_no: int) -> list[Item]:
    rng = _rng(seed, "scale", round_no)
    items = []
    for family, lang, n, want, count in SCALE_MIX:
        language = BOOLEAN_LANGUAGES[lang]
        for _ in range(count):
            prefix, body = (star if family == "star" else chain)(rng, lang, n, want)
            items.append(Item(
                f"scale/{family}-{lang}-{n}/{str(want).lower()}", "solve",
                render(2, language, prefix, body),
                info={"language": language, "intended": want}, formulas=[(prefix, body)],
            ))
    return items


# ---------------------------------------------------------------------------
# classify: single ternary Boolean relations, three-element languages and
# three-element algebras, never repeated within a run
# ---------------------------------------------------------------------------

_ROWS3 = list(itertools.product((0, 1), repeat=3))


def boolean_ternary(mask: int) -> dict:
    return {"R": (3, frozenset(t for i, t in enumerate(_ROWS3) if mask >> i & 1))}


def _dispatch_strata() -> dict[int, list[int]]:
    """The 256 single-ternary-relation languages grouped by how many of the
    four dispatch operations preserve them."""
    strata: dict[int, list[int]] = {}
    for mask in range(256):
        strata.setdefault(len(reference.dispatch_hits(boolean_ternary(mask))), []).append(mask)
    return strata


def random_language3(rng: random.Random) -> dict:
    pairs = list(itertools.product(range(3), repeat=2))
    language = {}
    for r in range(rng.choice((1, 2))):
        rows = frozenset(t for t in pairs if rng.random() < 0.5) or frozenset({pairs[0]})
        language[f"R{r}"] = (2, rows)
    return language


def random_binary_op3(rng: random.Random) -> tuple[int, tuple[int, ...]]:
    return 2, reference.table_of(3, 2, lambda x, y: x if x == y else rng.randrange(3))


def algebra_shape(generators: list) -> str:
    """`sink-shape` when there are exactly two two-element subalgebras
    sharing one element and a shared-element semilattice is a binary term
    operation (the shape of a three-element sink); `overlapping-pairs` for
    the two subalgebras without that semilattice; else `other-shapes`."""
    pairs = [s for s in reference.closed_subsets(3, generators) if len(s) == 2]
    if len(pairs) != 2 or len(pairs[0] & pairs[1]) != 1:
        return "other-shapes"
    closure = reference.binary_closure(3, generators)
    if any(reference.shared_semilattice(3, s) in closure for s in range(3)):
        return "sink-shape"
    return "overlapping-pairs"


# seeded formulas per three-element language: solve-oracle decides them, and
# for P_certified languages so does the certified collapse width and source
CHECK_FORMULAS = 3

# (item class, items per round); two-element classes are strata by dispatch hits
CLASSIFY_MIX = [
    ("classify2/hits0", 3), ("classify2/hits1", 3), ("classify2/hits2", 4),
    ("classify2/hits3", 2), ("classify2/hits4", 2),
    ("classify3/no-semilattice", 8), ("classify3/semilattice", 6),
    ("analyze/sink-shape", 1), ("analyze/overlapping-pairs", 5),
    ("analyze/other-shapes", 6),
]


class ClassifyDraw:
    """Draws inputs that never repeat within a run: two-element languages
    without replacement inside each stratum, three-element languages and
    algebras by rejecting any already drawn. A stratum starts to repeat only
    once used up: after 15 rounds for `sink-shape`, 18 for the others."""

    def __init__(self, seed: int):
        rng = random.Random(f"{seed}/classify/strata")
        self.pools = {}
        for hits, masks in _dispatch_strata().items():
            masks = masks[:]
            rng.shuffle(masks)
            self.pools[hits] = masks
        self.taken = {hits: 0 for hits in self.pools}
        self.seen: set[str] = set()
        self.seed = seed

    def _next_mask(self, hits: int) -> int:
        pool = self.pools[hits]
        mask = pool[self.taken[hits] % len(pool)]
        self.taken[hits] += 1
        return mask

    def round(self, round_no: int) -> list[Item]:
        rng = _rng(self.seed, "classify", round_no)
        items = []
        for cls, count in CLASSIFY_MIX:
            for _ in range(count):
                items.append(self._item(rng, cls))
        return items

    def _fresh(self, draw, accept):
        """Draw until an unseen input passes `accept`; once a stratum is
        used up (after many tries), a repeat is allowed."""
        for tries in itertools.count():
            value, text = draw()
            if (text not in self.seen or tries > 5_000) and accept(value):
                self.seen.add(text)
                return value, text

    def _item(self, rng: random.Random, cls: str) -> Item:
        kind, stratum = cls.split("/")
        if kind == "classify2":
            language = boolean_ternary(self._next_mask(int(stratum[4:])))
            return Item(cls, "classify", render(2, language), info={"language": language})
        if kind == "classify3":
            want = stratum == "semilattice"

            def draw_language():
                language = random_language3(rng)
                return language, render(3, language)

            language, text = self._fresh(
                draw_language, lambda lang: bool(reference.semilattice_elements(3, lang)) == want
            )
            formulas = [
                random_formula(rng, language, n_vars=(6, 9), max_universals=4, n_constraints=(4, 8))
                for _ in range(CHECK_FORMULAS)
            ]
            return Item(cls, "classify", text, info={"language": language}, formulas=formulas)

        def draw_op():
            op = random_binary_op3(rng)
            return op, render(3, {}, ops={"f": op})

        op, text = self._fresh(draw_op, lambda op: algebra_shape([op]) == stratum)
        return Item(cls, "analyze", text, info={"generators": [op]})


def workload_rounds(workload: str, seed: int):
    """An endless iterator of rounds (lists of items) for the workload. Items
    are shuffled within a round, so that a slow spell of a shared machine
    does not fall on one item class only."""
    if workload == "classify":
        make = ClassifyDraw(seed).round
    else:
        make = {"solve": solve_round, "scale": scale_round}[workload]
        make = functools.partial(make, seed)
    round_no = 0
    while True:
        items = make(round_no)
        _rng(seed, workload + "/order", round_no).shuffle(items)
        yield items
        round_no += 1
