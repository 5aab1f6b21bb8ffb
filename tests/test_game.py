import collections
import itertools

import pytest

from conftest import (
    enumerate_strategies,
    eq_rel,
    formula,
    impl_rel,
    naive_truth,
    naive_winnable,
    reference_game,
    reference_strategy,
    rel,
    strategy_wins,
)
from qcollapse.corpus import CorpusSpec, instances
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.game import (
    DEFAULT_NODE_CAP,
    Adversary,
    Strategy,
    check_strategy,
    constant_adversary,
    evaluate_truth,
    _Game,
)
from qcollapse.model import EXISTS, FORALL, Constraint, Domain, QuantifiedFormula, Relation


def adv(*coords):
    return Adversary(tuple(frozenset(c) for c in coords))


def deep_chain(n: int):
    """exists v0 forall v1 exists v2 ... over one element, E(v_i, v_i+1) for
    each neighbour pair: true, and deeper than Python's recursion limit."""
    e = rel("E", 2, 1, [(0, 0)])
    prefix = " ".join(("E" if i % 2 == 0 else "A") + f"v{i}" for i in range(n))
    return formula(1, prefix, [Constraint(e, (f"v{i}", f"v{i + 1}")) for i in range(n - 1)])


def existential_chain(n: int):
    """exists x1 .. xn: Unit(x1) & Impl(x1, x2) & ... & Impl(x_n-1, x_n), a
    purely existential Horn chain: true, with 2^n assignments."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    body = [Constraint(rel("Unit", 1, 2, [(1,)]), ("x1",))]
    body += [Constraint(impl_rel(), (a, b)) for a, b in zip(xs, xs[1:])]
    return formula(2, " ".join("E" + x for x in xs), body)


def edge_case_formula(rng, d: int) -> QuantifiedFormula:
    """Up to six prefix variables and five constraints over one to three
    random relations; arguments are often constants or repeated variables,
    some constraints hold only constants, and some bodies are empty."""
    names = [f"v{i}" for i in range(rng.randint(0, 6))]
    prefix = tuple((rng.choice((EXISTS, FORALL)), v) for v in names)
    relations = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        rows = list(itertools.product(range(d), repeat=arity))
        relations.append(rel(f"R{i}", arity, d, rng.sample(rows, rng.randint(0, len(rows)))))
    # half the bodies read only the first three variables, so the later ones
    # are never needed and variables repeat more often
    used = names if rng.random() < 0.5 else names[:3]
    body = []
    for _ in range(rng.choice((0, 1, 2, 3, 4, 5))):
        r = rng.choice(relations)
        only_constants = not names or rng.random() < 0.1
        args = tuple(
            rng.randrange(d) if only_constants or rng.random() < 0.2 else rng.choice(used)
            for _ in range(r.arity)
        )
        body.append(Constraint(r, args))
    return QuantifiedFormula(Domain(d), prefix, tuple(body))


def edge_case_games(seed: int, count: int):
    """(formula, random adversary) pairs over d = 1, 2, 3 in turn."""
    import random

    rng = random.Random(seed)
    for i in range(count):
        d = 1 + i % 3
        phi = edge_case_formula(rng, d)
        coords = tuple(
            frozenset(rng.sample(range(d), rng.randint(1, d))) for _ in phi.universal_vars
        )
        yield phi, Adversary(coords)


def dense_relation(rng, name: str, arity: int, d: int) -> Relation:
    rows = itertools.product(range(d), repeat=arity)
    return rel(name, arity, d, [t for t in rows if rng.random() < 0.75])


def star_formula(rng, d: int, pinned: bool) -> QuantifiedFormula:
    """forall y1..yk exists x: R(y_a, y_b, x) along a random path of the y's,
    optionally with a unary pin on x. The constraints all close at x, so
    from the first ready one on x's running mask is part of the state."""
    k = rng.randint(2, 6 if d == 2 else 4)
    ys = [f"y{i}" for i in range(k)]
    order = rng.sample(ys, k)
    r = dense_relation(rng, "R", 3, d)
    body = [Constraint(r, (a, b, "x")) for a, b in zip(order, order[1:])]
    if pinned:
        pin = rel("P", 1, d, [(v,) for v in rng.sample(range(d), d - 1)])
        body.append(Constraint(pin, ("x",)))
    prefix = tuple((FORALL, y) for y in ys) + ((EXISTS, "x"),)
    return QuantifiedFormula(Domain(d), prefix, tuple(body))


def interleaved_formula(rng, d: int) -> QuantifiedFormula:
    """Mixed quantifiers; every constraint closes at least two positions after
    its other variables, so it becomes ready before a later universal or
    existential closes it."""
    names = [f"v{i}" for i in range(rng.randint(4, 6 if d == 2 else 5))]
    prefix = tuple((rng.choice((EXISTS, FORALL)), v) for v in names)
    body = []
    for i in range(rng.randint(2, 4)):
        close = rng.randrange(2, len(names))
        others = rng.sample(range(close - 1), min(rng.randint(1, 2), close - 1))
        args = [names[q] for q in others] + [names[close]]
        rng.shuffle(args)
        body.append(Constraint(dense_relation(rng, f"R{i}", len(args), d), tuple(args)))
    return QuantifiedFormula(Domain(d), prefix, tuple(body))


def residual_state_games(seed: int, count: int):
    """(kind, formula, random adversary) over stars with and without a pin
    and interleaved prefixes, at d = 2 and 3: the shapes where the running
    masks in the memo key decide the result."""
    import random

    rng = random.Random(seed)
    kinds = ("star", "pinned_star", "interleaved")
    for i in range(count):
        kind, d = kinds[i % 3], 2 + i // 3 % 2
        if kind == "interleaved":
            phi = interleaved_formula(rng, d)
        else:
            phi = star_formula(rng, d, kind == "pinned_star")
        coords = tuple(
            frozenset(rng.sample(range(d), rng.randint(1, d))) for _ in phi.universal_vars
        )
        yield (kind, d), phi, Adversary(coords)


class TestEvaluateTruth:
    def test_forall_exists_equality(self):
        assert evaluate_truth(formula(2, "Ay Ex", [Constraint(eq_rel(), ("y", "x"))]))

    def test_exists_forall_equality(self):
        assert not evaluate_truth(formula(2, "Ex Ay", [Constraint(eq_rel(), ("x", "y"))]))

    def test_empty_body(self):
        assert evaluate_truth(formula(2, "Ay Ex Az", []))

    def test_two_clause_instance(self):
        # forall y exists x: (y or x) and (not y or not x)
        clause_or = rel("Or", 2, 2, [(0, 1), (1, 0), (1, 1)])
        clause_nand = rel("Nand", 2, 2, [(0, 0), (0, 1), (1, 0)])
        phi = formula(
            2, "Ay Ex",
            [Constraint(clause_or, ("y", "x")), Constraint(clause_nand, ("y", "x"))],
        )
        assert naive_truth(phi) is True
        assert evaluate_truth(phi) is True

    def test_matches_naive_oracle_on_corpus(self):
        spec = CorpusSpec(seed=11, count=120, max_vars=5, max_universals=3)
        for _, phi in instances(spec):
            assert evaluate_truth(phi) == naive_truth(phi)

    def test_guardrail_refuses_exactly_above_the_opened_nodes(self):
        refused = 0
        for _, phi, _ in residual_state_games(45, 300):
            game = _Game(phi, DEFAULT_NODE_CAP)
            truth = game.run()
            assert evaluate_truth(phi, node_cap=max(game.nodes, 1)) == truth
            if game.nodes > 1:
                refused += 1
                cap = game.nodes - 1
                with pytest.raises(GuardrailError) as err:
                    evaluate_truth(phi, node_cap=cap)
                assert str(err.value) == f"game search opened more than {cap} nodes"
        assert refused >= 200

    def test_guardrail_counts_nodes_not_assignments(self):
        # 2^24 and 2^40 assignments, each decided in a few opened nodes
        for phi in (existential_chain(24), existential_chain(40), deep_chain(1500)):
            assert evaluate_truth(phi)
            assert evaluate_truth(phi, node_cap=len(phi.prefix))

    @pytest.mark.parametrize("cap", [1, 36, 37, 485, 486, 2186, 2187])
    def test_guardrail_is_never_stricter_than_the_reference_estimate(self, cap):
        # the search opens 37 nodes; the reference's up-front estimates are
        # 3^7 = 2187 assignments without an adversary, 1*3*2*3*3*3*3 = 486 with it
        pairs = itertools.product(range(3), repeat=2)
        neq = rel("Neq", 2, 3, [t for t in pairs if t[0] != t[1]])
        phi = formula(
            3, "Ay1 Ex1 Ay2 Ex2 Ay3 Ex3 Ex4",
            [Constraint(neq, args) for args in (("y1", "x4"), ("y2", "x4"), ("y3", "x3"), ("x3", "x4"))],
        )
        adversary = adv({0}, {0, 1}, {0, 1, 2})
        game = _Game(phi, DEFAULT_NODE_CAP)
        truth = game.run()

        def outcome(decide, *args, **node_cap):
            try:
                return decide(phi, *args, **node_cap)
            except GuardrailError as err:
                return str(err)

        assert outcome(evaluate_truth, node_cap=cap) == (
            f"game search opened more than {cap} nodes" if cap < game.nodes else truth
        )
        assert outcome(reference_game, node_cap=cap) == (
            f"estimated game tree of 2187 assignments exceeds the cap of {cap}"
            if cap < 2187 else truth
        )
        assert outcome(reference_game, adversary, node_cap=cap) == (
            f"estimated game tree of 486 assignments exceeds the cap of {cap}"
            if cap < 486 else naive_winnable(phi, adversary)
        )
        assert game.nodes < 486

    def test_deep_prefix_needs_no_recursion(self):
        assert evaluate_truth(deep_chain(1500))

    def test_horn_star_memo_stays_linear(self):
        # forall y1..yn exists x: H(y1, y2, x) & ... & H(y_n-1, y_n, x); at
        # each position the residual state is one y value and x's mask
        n = 20
        horn = rel(
            "H", 3, 2,
            [t for t in itertools.product((0, 1), repeat=3) if not (t[0] and t[1]) or t[2]],
        )
        ys = [f"y{i}" for i in range(1, n + 1)]
        phi = formula(
            2, " ".join("A" + y for y in ys) + " Ex",
            [Constraint(horn, (a, b, "x")) for a, b in zip(ys, ys[1:])],
        )
        game = _Game(phi, DEFAULT_NODE_CAP)
        assert game.run()  # what evaluate_truth returns
        assert 1 <= len(game.memo) <= 4 * (n + 1)
        assert 1 <= game.nodes <= 4 * (n + 1)


class TestAgainstReference:
    """The compiled forward-pruning search against the plain recursive
    oracle and the recursive memoizing evaluator it replaced; and that
    evaluator's winnability, which the semantic tests of collapsibility
    lean on, against the plain recursive game."""

    def test_edge_case_shapes_are_drawn(self):
        seen = {"constant": 0, "repeated": 0, "constants_only": 0, "empty_body": 0}
        for phi, _ in edge_case_games(41, 600):
            seen["empty_body"] += not phi.body
            for c in phi.body:
                names = [a for a in c.args if isinstance(a, str)]
                seen["constant"] += len(names) < len(c.args)
                seen["repeated"] += len(set(names)) < len(names)
                seen["constants_only"] += not names
        assert all(n >= 20 for n in seen.values()), seen
        kinds = collections.Counter(kind for kind, _, _ in residual_state_games(45, 600))
        assert len(kinds) == 6 and min(kinds.values()) >= 20, kinds

    def test_truth_and_winnability_agree(self):
        games = itertools.chain(
            edge_case_games(41, 1500),
            ((phi, adversary) for _, phi, adversary in residual_state_games(45, 600)),
        )
        for phi, adversary in games:
            assert evaluate_truth(phi) == naive_truth(phi) == reference_game(phi)
            assert reference_game(phi, adversary) == naive_winnable(phi, adversary)

    def test_extracted_strategies_are_identical(self):
        extracted = 0
        games = itertools.chain(
            edge_case_games(43, 900),
            ((phi, adversary) for _, phi, adversary in residual_state_games(47, 600)),
        )
        # the reference walk's smallest-value strategy exists exactly when
        # the game is winnable, and its replay is accepted
        for phi, adversary in games:
            expected = reference_strategy(phi, adversary)
            if expected is None:
                assert not naive_winnable(phi, adversary)
                continue
            extracted += 1
            assert naive_winnable(phi, adversary)
            assert check_strategy(phi, adversary, Strategy(expected))
        assert extracted >= 300


class TestWinnable:
    """Winnability against an adversary as the test reference decides it:
    the semantic tests of composition and collapsibility lean on
    `reference_game(phi, adversary)`, so it is held here to truth, to the
    strategy-space semantics and to the memoization-free recursion."""

    def test_full_adversary_is_truth(self):
        spec = CorpusSpec(seed=3, count=80, max_vars=5, max_universals=3)
        for _, phi in instances(spec):
            n = len(phi.universal_vars)
            full = constant_adversary(n, frozenset(range(phi.domain.size)))
            assert reference_game(phi, full) == evaluate_truth(phi)

    def test_singleton_adversary_single_check(self):
        phi = formula(2, "Ex Ay", [Constraint(eq_rel(), ("x", "y"))])
        assert reference_game(phi, adv({0}))
        assert reference_game(phi, adv({1}))
        assert not reference_game(phi, adv({0, 1}))

    def test_length_mismatch(self):
        phi = formula(2, "Ay Ex", [Constraint(eq_rel(), ("y", "x"))])
        with pytest.raises(StructuralError):
            reference_game(phi, adv({0}, {1}))

    def test_empty_coordinate_rejected(self):
        with pytest.raises(StructuralError):
            adv(set())

    def test_domination_monotonicity(self):
        # bigger adversaries are harder: winnable(big) implies winnable(small)
        spec = CorpusSpec(seed=5, count=40, max_vars=5, max_universals=2)
        for _, phi in instances(spec):
            n = len(phi.universal_vars)
            if n == 0:
                continue
            coords = [
                [frozenset(c) for c in ({0}, {1}, {0, 1})] for _ in range(n)
            ]
            big = Adversary(tuple(frozenset({0, 1}) for _ in range(n)))
            for small in itertools.product(*coords):
                if reference_game(phi, big):
                    assert reference_game(phi, Adversary(small))

    def test_matches_naive_winnability_on_corpus(self):
        import random

        rng = random.Random(321)
        specs = [
            CorpusSpec(seed=210, count=60, max_vars=6, max_universals=4),
            CorpusSpec(seed=211, count=40, max_vars=4, max_universals=2, domain_size=3),
        ]
        for spec in specs:
            for _, phi in instances(spec):
                n = len(phi.universal_vars)
                d = phi.domain.size
                coords = tuple(
                    frozenset(rng.sample(range(d), rng.randint(1, d)))
                    for _ in range(n)
                )
                adversary = Adversary(coords)
                assert reference_game(phi, adversary) == naive_winnable(phi, adversary)

    def test_agrees_with_strategy_enumeration(self):
        # tiny instances: compare against the explicit strategy-space semantics
        spec = CorpusSpec(seed=13, count=25, max_vars=3, max_universals=2, max_constraints=2)
        for _, phi in instances(spec):
            n = len(phi.universal_vars)
            coords = tuple(frozenset({0, 1}) for _ in range(n))
            expected = any(
                strategy_wins(phi, tables, coords)
                for tables in enumerate_strategies(phi)
            )
            assert reference_game(phi, Adversary(coords)) == expected


class TestStrategies:
    def setup_method(self):
        self.phi = formula(2, "Ay Ex", [Constraint(eq_rel(), ("y", "x"))])
        self.full = constant_adversary(1, frozenset(range(2)))

    def test_extracted_strategy_copies(self):
        sigma = Strategy(reference_strategy(self.phi, self.full))
        assert sigma.responses["x"] == {(0,): 0, (1,): 1}
        assert check_strategy(self.phi, self.full, sigma)

    def test_constant_strategy_fails(self):
        sigma = Strategy({"x": {(0,): 0, (1,): 0}})
        assert not check_strategy(self.phi, self.full, sigma)

    def test_replay_rejects_adversary_length_mismatch(self):
        with pytest.raises(StructuralError):
            check_strategy(self.phi, adv({0}, {1}), Strategy({"x": {(0,): 0, (1,): 1}}))

    def test_undefined_strategy_fails(self):
        sigma = Strategy({"x": {(0,): 0}})
        assert not check_strategy(self.phi, self.full, sigma)

    def test_unwinnable_returns_none(self):
        phi = formula(2, "Ex Ay", [Constraint(eq_rel(), ("x", "y"))])
        assert reference_strategy(phi, constant_adversary(1, frozenset(range(2)))) is None
        assert not reference_game(phi, constant_adversary(1, frozenset(range(2))))

    def test_empty_body_any_total_strategy_wins(self):
        phi = formula(2, "Ay Ex", [])
        sigma = Strategy({"x": {(0,): 1, (1,): 1}})
        assert check_strategy(phi, constant_adversary(1, frozenset(range(2))), sigma)

    def test_extraction_replays_on_corpus(self):
        spec = CorpusSpec(seed=17, count=60, max_vars=5, max_universals=3)
        for _, phi in instances(spec):
            n = len(phi.universal_vars)
            adversary = constant_adversary(n, frozenset(range(phi.domain.size)))
            responses = reference_strategy(phi, adversary)
            if responses is None:
                assert not reference_game(phi, adversary)
            else:
                assert check_strategy(phi, adversary, Strategy(responses))

    def test_horn_style_instance(self):
        phi = formula(
            2, "Ay1 Ex1 Ay2 Ex2",
            [
                Constraint(impl_rel(), ("y1", "x1")),
                Constraint(impl_rel(), ("y2", "x2")),
                Constraint(impl_rel(), ("x1", "x2")),
            ],
        )
        adversary = constant_adversary(2, frozenset(range(2)))
        responses = reference_strategy(phi, adversary)
        assert responses is not None
        assert check_strategy(phi, adversary, Strategy(responses))

    def test_dump_format(self):
        sigma = Strategy({"x": {(1,): 1, (0,): 0}})
        assert sigma.dump() == "x | 0 | 0\nx | 1 | 1\n"
