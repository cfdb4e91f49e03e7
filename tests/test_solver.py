import inspect
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from selectiongames.corpus import bundled_instances
from selectiongames.covers import FiniteSelection
from selectiongames.engine import GameKind
from selectiongames.errors import ResourceLimitError
from selectiongames.hurewicz import ExclusionOracle, normalize_strategy
from selectiongames.solver import (
    FiniteGameInstance,
    SolveResult,
    _selections,
    counterplay_bob_strategy,
    cross_check,
    decision_table,
    deterministic_strategy,
    instance_cover,
    minimal_winning_depth,
    restrict_option,
    solve_finite_game,
    stationary_instance,
)
from selectiongames.spaces import FiniteTopological

from helpers import protection_plan

G1 = GameKind("single")
GFIN = GameKind("finite")


def two_point():
    return bundled_instances()["two_point_singletons"]


def reference_solve(instance, game, depth, selection_cap, node_limit=200_000):
    """The frozenset backward induction the bitmask solver replaced, kept as
    the reference it must match exactly (winner, nodes, ordered table): the
    result and the decision table."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    counter = {"nodes": 0}
    strategy: dict[tuple, object] = {}

    def bob_wins(history, covered: frozenset[int], d: int) -> bool:
        counter["nodes"] += 1
        if counter["nodes"] > node_limit:
            raise ResourceLimitError(f"solver exceeded {node_limit} nodes")
        if len(covered) == instance.space.n_points:
            return True
        if d == 0:
            return False
        for opt_idx, cover in enumerate(instance.options_at(history)):
            won = False
            for sel in _selections(cover, selection_cap, game.arity):
                new_covered = covered.union(*(cover[i - 1] for i in sel))
                if bob_wins(history + ((opt_idx, sel),), new_covered, d - 1):
                    strategy[("bob", history, opt_idx, tuple(sorted(covered)))] = sel
                    won = True
                    break
            if not won:
                strategy[("alice", history, tuple(sorted(covered)))] = opt_idx
                return False
        return True

    winner = "bob" if bob_wins((), frozenset(), depth) else "alice"
    return SolveResult(winner=winner, depth=depth, nodes=counter["nodes"]), strategy


def reference_minimal_winning_depth(instance, game, selection_cap, max_depth=8):
    """The depth loop minimal_winning_depth replaced, kept verbatim over
    reference_solve as the reference its depths must match."""
    for d in range(1, max_depth + 1):
        if reference_solve(instance, game, d, selection_cap)[0].winner == "bob":
            return d
    raise ResourceLimitError(f"no winning depth within {max_depth} for {instance.name}")


@st.composite
def generated_instances(draw):
    """Instances on 1-5 points: stationary, or history-dependent with
    options rebuilt as fresh tuples on every call. Covers may miss points."""
    n = draw(st.integers(min_value=1, max_value=5))
    member = st.frozensets(st.integers(min_value=0, max_value=n - 1), min_size=1)
    cover = st.lists(member, min_size=1, max_size=4).map(tuple)
    families = draw(st.lists(st.lists(cover, min_size=1, max_size=2), min_size=1, max_size=3))
    space = FiniteTopological.discrete(n)
    if len(families) == 1 and draw(st.booleans()):
        return stationary_instance(space, families[0], name="generated")
    r = len(families)

    def options_at(history):
        fam = families[sum(o + sum(sel) for o, sel in history) % r]
        return tuple(tuple(frozenset(m) for m in c) for c in fam)

    return FiniteGameInstance(space, options_at, name="generated-history")


def leaf_heavy_instance():
    """A history-dependent instance on 5 points whose covers hold singletons
    and pairs: the first player wins at depth 3 in the single-selection game,
    the second at depth 4, and either way most positions searched have one
    inning left."""
    families = [
        [((0,), (1,), (2,), (3,), (4,)), ((0, 1), (2,), (3, 4), (1, 2))],
        [((4,), (3,), (2,), (0, 1), (1,)), ((0,), (1, 3), (2, 4))],
    ]

    def options_at(history):
        fam = families[sum(o + sum(sel) for o, sel in history) % 2]
        return tuple(tuple(frozenset(m) for m in c) for c in fam)

    return FiniteGameInstance(FiniteTopological.discrete(5), options_at, name="leaf-heavy")


def counting(instance):
    """The instance with its `options_at` calls counted in ``calls[0]``."""
    calls = [0]

    def options_at(history):
        calls[0] += 1
        return instance.options_at(history)

    return FiniteGameInstance(instance.space, options_at, name=instance.name), calls


def raises_at(solve, instance, game, depth, cap, node_limit):
    try:
        solve(instance, game, depth, cap, node_limit=node_limit)
    except ResourceLimitError:
        return True
    return False


class TestSolve:
    def test_one_point_depth_one(self):
        result = solve_finite_game(bundled_instances()["one_point"], G1, 1, 1)
        assert result.winner == "bob"

    def test_two_point_singletons_single_game(self):
        assert solve_finite_game(two_point(), G1, 1, 1).winner == "alice"
        assert solve_finite_game(two_point(), G1, 2, 1).winner == "bob"

    def test_two_point_singletons_finite_game_cap_two(self):
        assert solve_finite_game(two_point(), GFIN, 1, 2).winner == "bob"

    def test_winner_antitone_in_depth(self):
        inst = bundled_instances()["three_point_singletons"]
        winners = [solve_finite_game(inst, G1, d, 1).winner for d in range(1, 5)]
        # once bob wins at a depth, he wins at every larger depth
        first_bob = winners.index("bob")
        assert all(w == "bob" for w in winners[first_bob:])
        assert all(w == "alice" for w in winners[:first_bob])

    def test_cap_at_least_cover_size_wins_at_depth_one(self):
        for name, inst in bundled_instances().items():
            cap = max(len(c) for c in inst.options_at(()))
            assert solve_finite_game(inst, GFIN, 1, cap).winner == "bob", name

    def test_minimal_depths_match_hand_enumeration(self):
        assert minimal_winning_depth(two_point(), G1, 1) == 2
        assert minimal_winning_depth(two_point(), GFIN, 2) == 1
        assert minimal_winning_depth(bundled_instances()["three_point_singletons"], G1, 1) == 3
        assert minimal_winning_depth(bundled_instances()["four_point_pairs"], G1, 1) == 2
        assert minimal_winning_depth(bundled_instances()["four_point_pairs"], GFIN, 2) == 1

    def test_node_limit_guards(self):
        inst = bundled_instances()["three_point_singletons"]
        with pytest.raises(ResourceLimitError):
            solve_finite_game(inst, GFIN, 4, 3, node_limit=5)
        cases = [
            ("three_point_singletons", G1, 3, 1),
            ("three_point_singletons", G1, 2, 1),
            ("two_point_options", G1, 2, 1),
            ("chain_game", GFIN, 2, 2),
            ("one_point", G1, 1, 1),
        ]
        for name, game, depth, cap in cases:
            inst = bundled_instances()[name]
            r = solve_finite_game(inst, game, depth, cap)
            assert solve_finite_game(inst, game, depth, cap, node_limit=r.nodes).nodes == r.nodes, name
            with pytest.raises(ResourceLimitError):
                solve_finite_game(inst, game, depth, cap, node_limit=r.nodes - 1)

    def test_out_of_space_point_ids_rejected(self):
        space = FiniteTopological.discrete(2)
        for covers in ([[[0, 5], [1]]], [[[0, 1]], [[-1], [0, 1]]]):
            inst = stationary_instance(space, covers, name="stray")
            with pytest.raises(ValueError, match="stray: option"):
                solve_finite_game(inst, G1, 1, 1)

    @given(
        generated_instances(),
        st.sampled_from(["single", "finite"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_solver(self, inst, arity, cap, depth):
        game = GameKind(arity)
        want, want_table = reference_solve(inst, game, depth, cap)
        got = solve_finite_game(inst, game, depth, cap)
        assert (got.winner, got.nodes) == (want.winner, want.nodes)
        assert list(decision_table(inst, game, depth, cap).items()) == list(want_table.items())
        for limit in (want.nodes, want.nodes - 1):
            assert raises_at(solve_finite_game, inst, game, depth, cap, limit) == raises_at(
                reference_solve, inst, game, depth, cap, limit
            )

    @given(
        generated_instances(),
        st.sampled_from(["single", "finite"]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_minimal_depth_matches_reference_loop(self, inst, arity, cap, max_depth):
        game = GameKind(arity)

        try:
            want = reference_minimal_winning_depth(inst, game, cap, max_depth)
        except ResourceLimitError:
            want = "raised"
        with mock.patch("selectiongames.solver.MAX_WINNING_DEPTH", max_depth):
            try:
                got = minimal_winning_depth(inst, game, cap)
            except ResourceLimitError:
                got = "raised"
        assert got == want

    def test_node_limit_raises_exactly_where_the_reference_does(self):
        # every limit in [1, nodes]; at depths 3-4 most of this instance's
        # nodes sit one inning from the end, so many limits fall inside a
        # last-inning position's bulk count
        inst = leaf_heavy_instance()
        for arity, cap in (("single", 1), ("finite", 2)):
            game = GameKind(arity)
            for depth in (3, 4):
                nodes = reference_solve(inst, game, depth, cap)[0].nodes
                for limit in range(1, nodes + 1):
                    assert raises_at(solve_finite_game, inst, game, depth, cap, limit) == raises_at(
                        reference_solve, inst, game, depth, cap, limit
                    ), (arity, depth, limit)

    def test_selection_cap_below_one_is_a_value_error(self):
        bob = lambda cover, inning: FiniteSelection(cover, (1,))
        for cap in (0, -1):
            with pytest.raises(ValueError, match="selection_cap must be at least 1"):
                solve_finite_game(two_point(), GFIN, 2, cap)
            with pytest.raises(ValueError, match="selection_cap must be at least 1"):
                minimal_winning_depth(two_point(), GFIN, cap)
            with pytest.raises(ValueError, match="selection_cap must be at least 1"):
                cross_check(bob, two_point(), GFIN, selection_cap=cap)

    def test_depth_search_enters_fewer_positions_than_the_reference_loop(self):
        # the same depths, with fewer `options_at` calls: the winning depth
        # tries the most-covering selections first
        for arity, cap in (("single", 1), ("finite", 2)):
            game = GameKind(arity)
            fast, fast_calls = counting(leaf_heavy_instance())
            ref, ref_calls = counting(leaf_heavy_instance())
            assert minimal_winning_depth(fast, game, cap) == reference_minimal_winning_depth(ref, game, cap)
            assert fast_calls[0] < ref_calls[0], (arity, fast_calls[0], ref_calls[0])

    def test_budget_errors_name_the_instance_depth_and_limit(self, monkeypatch):
        with pytest.raises(ResourceLimitError, match=r"^solver exceeded 2 nodes on two_point_singletons at depth 3$"):
            solve_finite_game(two_point(), GFIN, 3, 1, node_limit=2)
        # the second player needs 12 innings; depth 5 is the first to
        # search past the 200,000-node budget (12^5 selections in its last
        # inning). Losing searches try every selection whatever the order.
        twelve = stationary_instance(
            FiniteTopological.discrete(12), [[[i] for i in range(12)]], name="twelve_singletons"
        )
        with pytest.raises(ResourceLimitError, match=r"^solver exceeded 200000 nodes on twelve_singletons at depth 5$"):
            minimal_winning_depth(twelve, G1, 1)
        # one constant is the depth searches' and the decision table's
        # budget, and the solve's default
        assert inspect.signature(solve_finite_game).parameters["node_limit"].default == 200_000
        with mock.patch("selectiongames.solver.NODE_LIMIT", 2):
            with pytest.raises(ResourceLimitError, match=r"^solver exceeded 2 nodes on twelve_singletons at depth 1$"):
                minimal_winning_depth(twelve, G1, 1)
            with pytest.raises(ResourceLimitError, match=r"^solver exceeded 2 nodes on twelve_singletons at depth 1$"):
                decision_table(twelve, G1, 1, 1)
        # the depth search gives up past MAX_WINNING_DEPTH
        three = bundled_instances()["three_point_singletons"]
        monkeypatch.setattr("selectiongames.solver.MAX_WINNING_DEPTH", 3)
        assert minimal_winning_depth(three, G1, 1) == 3
        monkeypatch.setattr("selectiongames.solver.MAX_WINNING_DEPTH", 2)
        with pytest.raises(ResourceLimitError, match=r"^no winning depth within 2 for three_point_singletons$"):
            minimal_winning_depth(three, G1, 1)

    def test_strategy_table_produced_for_winner(self):
        assert solve_finite_game(two_point(), G1, 2, 1).winner == "bob"
        bob_states = [k for k in decision_table(two_point(), G1, 2, 1) if k[0] == "bob"]
        assert bob_states


class TestDecisionTableOnRead:
    def test_unread_table_costs_no_second_search(self):
        inst, calls = counting(bundled_instances()["three_point_singletons"])
        result = solve_finite_game(inst, GFIN, 3, 1)
        searched = calls[0]
        assert searched > 0
        assert (result.winner, result.depth, result.nodes) == ("bob", 3, 10)
        assert calls[0] == searched

    def test_table_at_an_exact_node_limit_builds_without_raising(self, monkeypatch):
        for game, depth in ((G1, 3), (G1, 4), (GFIN, 3)):
            want, want_table = reference_solve(leaf_heavy_instance(), game, depth, 2)
            monkeypatch.setattr("selectiongames.solver.NODE_LIMIT", want.nodes)
            got = decision_table(leaf_heavy_instance(), game, depth, 2)
            assert list(got.items()) == list(want_table.items())


class TestCrossCheck:
    def test_constructed_counterplays_pass_on_every_line(self):
        for name, inst in bundled_instances().items():
            n_options = len(inst.options_at(()))
            for opt in range(n_options):
                line = restrict_option(inst, opt) if n_options > 1 else inst
                cap = max(len(c) for c in line.options_at(()))
                bob = counterplay_bob_strategy(line)
                assert cross_check(bob, line, GFIN, selection_cap=cap), (name, opt)

    def test_index_one_strategy_refuted(self):
        bob = lambda cover, inning: FiniteSelection(cover, (1,))
        verdict = cross_check(bob, two_point(), GFIN, selection_cap=2)
        assert not verdict

    def test_any_strategy_wins_on_one_point(self):
        bob = lambda cover, inning: FiniteSelection(cover, (1,))
        assert cross_check(bob, bundled_instances()["one_point"], GFIN, selection_cap=1)


def reference_counterplay_bob_strategy(instance, option=0):
    """The replay-from-the-root counterplay the path-keeping one replaced,
    kept verbatim as the reference its moves must match."""
    alice = deterministic_strategy(instance, option)
    tree = normalize_strategy(alice, instance.space)
    plan = protection_plan(instance.space)

    def advance(path, inning):
        oracles = [ExclusionOracle(tree, len(path) + 1, p) for p in plan(inning)]
        m = 1
        while any(o.omits(path + (m,)) for o in oracles):
            m += 1
        return m

    def move(cover, inning):
        path = ()
        for k in range(1, inning):
            path = path + (advance(path, k),)
        m = advance(path, inning)
        u = m if inning == 1 else max(1, m - 1)
        return FiniteSelection(cover, tuple(range(1, u + 1)))

    return move


INNING_ORDERS = ([1, 2, 3, 4, 5], [1, 1, 2, 2, 3, 3], [3, 1, 2, 5, 4, 1], [4])


def bundled_lines():
    for name, inst in bundled_instances().items():
        n_options = len(inst.options_at(()))
        for opt in range(n_options):
            yield (name, opt), restrict_option(inst, opt) if n_options > 1 else inst


def assert_same_moves(instance, option):
    cover = instance_cover(instance.space, instance.options_at(())[option], f"{instance.name}@0")
    for order in INNING_ORDERS:
        bob = counterplay_bob_strategy(instance, option)
        ref = reference_counterplay_bob_strategy(instance, option)
        got = [bob(cover, k).indices for k in order]
        assert got == [ref(cover, k).indices for k in order], (instance.name, order)


class TestCounterplayBobStrategy:
    def test_moves_match_the_replay_on_bundled_instances(self):
        for inst in bundled_instances().values():
            for opt in range(len(inst.options_at(()))):
                assert_same_moves(inst, opt)

    @settings(max_examples=40, deadline=None)
    @given(inst=generated_instances())
    def test_moves_match_the_replay_on_generated_instances(self, inst):
        # the replay hangs on a first cover that misses a point
        assume(frozenset().union(*inst.options_at(())[0]) == frozenset(range(inst.space.n_points)))
        assert_same_moves(inst, 0)

    def test_cross_check_verdicts_match_the_replay(self):
        for key, line in bundled_lines():
            cap = max(len(c) for c in line.options_at(()))
            got = cross_check(counterplay_bob_strategy(line), line, GFIN, selection_cap=cap)
            want = cross_check(reference_counterplay_bob_strategy(line), line, GFIN, selection_cap=cap)
            assert (got.ok, got.reason) == (want.ok, want.reason), key

    def test_cover_missing_a_point_raises_instead_of_hanging(self):
        space = FiniteTopological(2, [[], [0], [0, 1]])
        inst = stationary_instance(space, [[[0]]], name="gap")
        bob = counterplay_bob_strategy(inst)
        with pytest.raises(ValueError, match="does not cover point 1"):
            bob(instance_cover(space, inst.options_at(())[0], "gap@0"), 1)


class TestInstanceValidation:
    def test_bundled_instances_are_valid(self):
        instances = bundled_instances()
        assert len(instances) >= 6
        for inst in instances.values():
            inst.validate()

    def test_non_cover_rejected(self):
        space = FiniteTopological.discrete(2)
        inst = stationary_instance(space, [[[0]]], name="bad")
        with pytest.raises(ValueError):
            inst.validate()

    def test_non_open_set_rejected(self):
        space = FiniteTopological(2, [[], [0], [0, 1]])
        inst = stationary_instance(space, [[[1], [0, 1]]], name="bad-open")
        with pytest.raises(ValueError):
            inst.validate()

    def test_point_ids_are_ints_in_range_for_validate_and_the_solver(self):
        # 1.0 and True equal the point id 1, but neither is an int id; every
        # entry point raises the same error naming the option and the member
        space = FiniteTopological.discrete(2)
        for stray in (1.0, True):
            inst = stationary_instance(space, [[[stray, 0]]], name="ids")
            message = f"ids: option 0 member {set([stray, 0])} names point {stray!r} outside the 2-point space"
            for entry in (
                inst.validate,
                lambda: solve_finite_game(inst, G1, 1, 1),
                lambda: decision_table(inst, G1, 1, 1),
            ):
                with pytest.raises(ValueError) as caught:
                    entry()
                assert str(caught.value) == message

    def test_no_option_at_the_root_rejected(self):
        inst = stationary_instance(FiniteTopological.discrete(2), [], name="no-options")
        with pytest.raises(ValueError, match="no-options: no option at the root"):
            inst.validate()


class TestDeterministicStrategy:
    def test_clamps_indices_beyond_cover_length(self):
        inst = two_point()
        alice = deterministic_strategy(inst)
        reply = alice.move(((1, 5),))  # 5 clamps to the last member
        assert reply is alice.move(((1, 5),))
        assert reply.label == "two_point_singletons@1"

    def test_missing_option_raises_a_value_error_naming_the_position(self):
        space = FiniteTopological.discrete(2)
        both = (frozenset({0}), frozenset({1}))
        whole = (frozenset({0, 1}),)
        inst = FiniteGameInstance(
            space=space,
            options_at=lambda history: (both, whole) if not history else (whole,),
            name="shrinking",
        )
        alice = deterministic_strategy(inst, 1)
        alice.move(())
        with pytest.raises(ValueError, match=r"shrinking has no option 1 after oracle history \(\(1, \(1,\)\),\): 1 offered"):
            alice.move(((1,),))
        line = restrict_option(inst, 1)
        assert line.options_at(()) == (whole,)
        with pytest.raises(ValueError, match=r"shrinking has no option 1 after oracle history \(\(0, \(1,\)\),\): 1 offered"):
            line.options_at(((0, (1,)),))
