"""Independent computations the benchmark checks the program's outputs against.

Nothing here imports qcollapse: every verdict, label and certificate the
program prints is re-derived from first principles on the benchmark's own
data structures (relations as sets of tuples, operations as row-major tables).
"""

from __future__ import annotations

import itertools
import re

# A language is {name: (arity, frozenset of tuples)} over elements 0..d-1.
# A formula is (prefix, body): prefix a list of ("forall" | "exists", var),
# body a list of (relation name, args), each arg a variable name or an int.


def evaluate(d: int, language: dict, prefix: list, body: list) -> bool:
    """Plain recursive game evaluation: every constraint is checked as soon as
    its last variable is bound, with no memoisation."""
    depth_of = {v: i for i, (_, v) in enumerate(prefix)}
    closes_at: list[list] = [[] for _ in range(len(prefix) + 1)]
    for name, args in body:
        depth = max((depth_of[a] + 1 for a in args if isinstance(a, str)), default=0)
        closes_at[depth].append((language[name][1], args))
    env: dict[str, int] = {}

    def holds(depth: int) -> bool:
        for tuples, args in closes_at[depth]:
            if tuple(a if isinstance(a, int) else env[a] for a in args) not in tuples:
                return False
        return True

    def wins(depth: int) -> bool:
        if depth == len(prefix):
            return True
        quantifier, var = prefix[depth]
        for value in range(d):
            env[var] = value
            ok = holds(depth + 1) and wins(depth + 1)
            if quantifier == "exists" and ok:
                return True
            if quantifier == "forall" and not ok:
                return False
        return quantifier == "forall"

    return holds(0) and wins(0)


def table_of(d: int, arity: int, fn) -> tuple[int, ...]:
    return tuple(fn(*args) for args in itertools.product(range(d), repeat=arity))


def apply(d: int, table: tuple[int, ...], args) -> int:
    idx = 0
    for a in args:
        idx = idx * d + a
    return table[idx]


def preserves(d: int, arity: int, table: tuple[int, ...], tuples: frozenset) -> bool:
    """True iff the operation maps every choice of `arity` rows back into the
    relation, coordinate-wise."""
    rows = sorted(tuples)
    width = len(rows[0]) if rows else 0
    for choice in itertools.product(rows, repeat=arity):
        image = tuple(apply(d, table, [t[c] for t in choice]) for c in range(width))
        if image not in tuples:
            return False
    return True


def preserves_language(d: int, arity: int, table: tuple[int, ...], language: dict) -> bool:
    return all(preserves(d, arity, table, tuples) for _, tuples in language.values())


BOOLEAN_DISPATCH = {
    "and": (2, table_of(2, 2, lambda x, y: x & y)),
    "or": (2, table_of(2, 2, lambda x, y: x | y)),
    "majority": (3, table_of(2, 3, lambda x, y, z: (x + y + z) // 2)),
    "minority": (3, table_of(2, 3, lambda x, y, z: x ^ y ^ z)),
}


def dispatch_hits(language: dict) -> list[str]:
    """The two-element dispatch operations preserving the language, in the
    fixed order AND, OR, majority, minority."""
    return [
        name for name, (arity, table) in BOOLEAN_DISPATCH.items()
        if preserves_language(2, arity, table, language)
    ]


def shared_semilattice(d: int, shared: int) -> tuple[int, ...]:
    return table_of(d, 2, lambda x, y: x if x == y else shared)


def semilattice_elements(d: int, language: dict) -> list[int]:
    """Elements s whose shared-element semilattice preserves the language."""
    return [
        s for s in range(d) if preserves_language(d, 2, shared_semilattice(d, s), language)
    ]


def closed_subsets(d: int, generators: list) -> list[frozenset]:
    """Every nonempty subset closed under all generators, by brute force."""
    out = []
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(d), size):
            s = set(subset)
            if all(
                apply(d, table, args) in s
                for arity, table in generators
                for args in itertools.product(subset, repeat=arity)
            ):
                out.append(frozenset(subset))
    return out


def binary_closure(d: int, generators: list) -> set:
    """All binary term operations: the projections closed under applying
    every generator to already-found binary operations."""
    found = {table_of(d, 2, lambda x, y: x), table_of(d, 2, lambda x, y: y)}
    frontier = set(found)
    while frontier:
        fresh = set()
        current = list(found)
        for arity, table in generators:
            for combo in itertools.product(current, repeat=arity):
                if not any(c in frontier for c in combo):
                    continue
                op = tuple(apply(d, table, cols) for cols in zip(*combo))
                if op not in found:
                    fresh.add(op)
        found |= fresh
        frontier = fresh
    return found


# ---------------------------------------------------------------------------
# Certificate replay
# ---------------------------------------------------------------------------

_COORD = re.compile(r"\*|\{[0-9,]*\}")


def _coords(text: str, full: frozenset) -> list[frozenset]:
    out = []
    for tok in text.split():
        if not _COORD.fullmatch(tok):
            raise ValueError(f"bad coordinate {tok!r}")
        out.append(full if tok == "*" else frozenset(int(v) for v in tok[1:-1].split(",") if v))
    return out


def _trace_table(text: str, d: int, generators: list) -> tuple[int, tuple[int, ...]]:
    """(arity, table) of a construction trace such as `(g0 p2.1 (g1 p2.2 p2.1))`."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            outer = parse()
            inners = []
            while tokens[pos] != ")":
                inners.append(parse())
            pos += 1
            return ("comp", outer, inners)
        return ("atom", tok)

    def build(node):
        if node[0] == "atom":
            tok = node[1]
            if tok.startswith("g"):
                g = int(tok[1:])
                if not 0 <= g < len(generators):
                    raise ValueError(f"no generator {tok!r}")
                return generators[g]
            if not tok.startswith("p"):
                raise ValueError(f"bad trace token {tok!r}")
            k, i = (int(v) for v in tok[1:].split("."))
            if not 1 <= i <= k:
                raise ValueError(f"no projection {tok!r}")
            return k, table_of(d, k, lambda *args: args[i - 1])
        outer_arity, outer = build(node[1])
        inners = [build(n) for n in node[2]]
        if len(inners) != outer_arity or len({a for a, _ in inners}) != 1:
            raise ValueError(f"ill-formed composition in trace {text!r}")
        m = inners[0][0]
        return m, tuple(apply(d, outer, cols) for cols in zip(*(t for _, t in inners)))

    tree = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in trace {text!r}")
    return build(tree)


def replay_certificate(lines: list[str], d: int, generators: list) -> dict:
    """Replay a serialized certificate against the given generator tables and
    return its header fields; raises ValueError on the first failure.

    Checks: every axiom lies in a declared single-source family of the declared
    width, every step's inputs come earlier, its trace rebuilds an operation of
    the right arity, the claimed adversary lies inside the image of its inputs,
    and the result dominates target^n.
    """
    full = frozenset(range(d))
    header = dict(part.split("=", 1) for part in lines[0].split()[1:])
    if lines[0].split()[0] != "certificate" or int(header["domain"]) != d:
        raise ValueError("bad certificate header")
    n, width = int(header["n"]), int(header["width"])
    source = [int(v) for v in header["source"].split(",")]
    target = frozenset(int(v) for v in header["target"].split(","))
    entries: list[list[frozenset]] = []
    result = None
    for line in lines[1:]:
        if line.startswith("warning:"):
            continue
        if line.startswith("result"):
            result = int(line.split()[1])
            continue
        kind, rest = line.split(":", 1)
        idx = int(kind.split()[1])
        if idx != len(entries):
            raise ValueError(f"entry {idx} out of order")
        if kind.startswith("axiom"):
            adv = _coords(rest, full)
            if not any(
                sum(c != {a} for c in adv) <= width
                and all(c == {a} or c == full for c in adv)
                for a in source
            ):
                raise ValueError(f"axiom {idx} is outside the declared families")
        else:
            adv_text, deriv = rest.split("<=")
            adv = _coords(adv_text, full)
            trace_text, ids_text = deriv.strip().rsplit("(", 1)
            inputs = [int(t) for t in ids_text.rstrip(")").split(",") if t.strip()]
            if any(not (0 <= i < idx) for i in inputs):
                raise ValueError(f"step {idx} refers to a later or negative entry")
            arity, table = _trace_table(trace_text.strip(), d, generators)
            if arity != len(inputs):
                raise ValueError(f"step {idx}: arity {arity} with {len(inputs)} inputs")
            for pos, coord in enumerate(adv):
                pools = [sorted(entries[i][pos]) for i in inputs]
                image = {apply(d, table, args) for args in itertools.product(*pools)}
                if not coord <= image:
                    raise ValueError(f"step {idx}: coordinate {pos} is not composable")
        if len(adv) != n:
            raise ValueError(f"entry {idx} has length {len(adv)}, not {n}")
        entries.append(adv)
    if result is None or not (0 <= result < len(entries)):
        raise ValueError("missing or out-of-range result")
    if not all(target <= c for c in entries[result]):
        raise ValueError("result does not dominate target^n")
    return {"n": n, "width": width, "source": source, "target": sorted(target)}
