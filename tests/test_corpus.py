"""The corpus strategies play one cover object per distinct cover. Plays
against them are checked, byte for byte and verdict for verdict, against
plays against the strategies that built a fresh cover for every move
sequence (`helpers.reference_named_strategies` and
`helpers.reference_seeded_strategy`)."""

import json

import pytest

from selectiongames import products
from selectiongames.corpus import named_strategies, seeded_strategy
from selectiongames.engine import AliceStrategy, check_legal, evaluate_win
from selectiongames.hurewicz import bob_counterplay_menger, normalize_strategy
from selectiongames.products import infinitely_often_play, lift_strategy, project_selection
from selectiongames.scenarios import transcript_records
from selectiongames.spaces import CountableDiscrete

from helpers import reference_named_strategies, reference_seeded_strategy

NAMED = ("seg_tower", "shifted_seg", "singletons", "whole_head", "mixed_adversarial")
HORIZON = 5  # points the infinitely-often plays report on


def emitted(transcript) -> str:
    """The transcript as `scenarios.emit_transcript` writes it."""
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in transcript_records(transcript))


def menger_outcome(alice: AliceStrategy, innings: int, reference: AliceStrategy):
    """The emitted Menger counterplay (finite-win horizon = innings) and its
    verdicts: the win at the horizon, and legality against the strategy
    played and against the reference strategy."""
    tree = normalize_strategy(alice, alice.space, finite_win_horizon=innings)
    t = bob_counterplay_menger(tree, raw=alice, innings=innings).transcript
    return emitted(t), evaluate_win(t, innings), check_legal(t, alice), check_legal(t, reference)


def paired_menger(make, make_reference, innings: int):
    space = CountableDiscrete()
    reference = make_reference(space)
    return menger_outcome(make(space), innings, reference), menger_outcome(reference, innings, reference)


class TestAgainstTheReferenceStrategies:
    @pytest.mark.parametrize("innings", (10, 20, 30))
    @pytest.mark.parametrize("name", NAMED)
    def test_named_menger_plays_match(self, name, innings):
        got, want = paired_menger(
            lambda s: named_strategies(s)[name], lambda s: reference_named_strategies(s)[name], innings
        )
        assert got == want
        assert want[1].bob_wins and want[2] and want[3]

    def test_seeded_menger_plays_match(self):
        for seed in range(64):
            got, want = paired_menger(
                lambda s: seeded_strategy(s, seed), lambda s: reference_seeded_strategy(s, seed), 40
            )
            assert got == want, seed
            assert want[1].bob_wins and want[2] and want[3], seed

    @pytest.mark.parametrize("innings", (20, 30))
    @pytest.mark.parametrize("name", NAMED)
    def test_named_often_plays_match(self, name, innings):
        outcomes = []
        for corpus in (named_strategies, reference_named_strategies):
            space = CountableDiscrete()
            alice, reference = corpus(space)[name], reference_named_strategies(space)[name]
            t, report, lifted_path = infinitely_often_play(alice, innings, horizon=HORIZON)
            verdicts = (evaluate_win(t, HORIZON), check_legal(t, alice), check_legal(t, reference))
            outcomes.append((emitted(t), report, lifted_path, verdicts))
        assert outcomes[0] == outcomes[1]
        assert all(outcomes[1][3])


def logged(alice: AliceStrategy) -> tuple[AliceStrategy, list]:
    """The strategy, and the list of covers it played, in the order asked."""
    played: list = []
    move = lambda moves: played.append(alice.move(moves)) or played[-1]
    return AliceStrategy(space=alice.space, move=move, name=alice.name), played


class TestOneCoverObjectPerDistinctCover:
    def test_named_moves_with_one_shape_and_shift_share_a_cover(self):
        named = named_strategies(CountableDiscrete())
        tower, shifted, mixed = named["seg_tower"], named["shifted_seg"], named["mixed_adversarial"]
        assert tower.move(()) is tower.move(((3,),)) is tower.move(((1,), (2, 5)))
        assert shifted.move(((3,),)) is shifted.move(((1,), (2, 3)))  # shift 3
        assert shifted.move(((3,),)) is not shifted.move(((4,),))
        assert shifted.move(()) is tower.move(())  # shift 0, from one table
        assert mixed.move(()) is mixed.move(((3,), (4,)))  # shift (3 + 4) % 7 == 0
        assert mixed.move(((1,), (1,))) is not mixed.move(())  # shift 2
        assert mixed.move(((1,),)) is mixed.move(((5,), (1,), (2,))) is named["singletons"].move(())
        assert named["whole_head"].move(()) is named["whole_head"].move(((2,),))

    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_seeded_moves_drawing_one_shape_and_shift_share_a_cover(self, seed):
        """A cover's label names its shape and shift (segments+k, segments,
        singletons, whole-head), so equal labels must be one object."""
        space = CountableDiscrete()
        alice, reference = seeded_strategy(space, seed), reference_seeded_strategy(space, seed)
        moves = [()] + [((i,),) for i in range(1, 12)] + [((i,), (j, i + j)) for i in range(1, 6) for j in (1, 4)]
        by_label: dict[str, set[int]] = {}
        for m in moves:
            cover = alice.move(m)
            assert cover.label == reference.move(m).label, m
            by_label.setdefault(cover.label, set()).add(id(cover))
        assert all(len(ids) == 1 for ids in by_label.values()), by_label
        assert len(by_label) >= 3  # several shapes and shifts drawn

    @pytest.mark.parametrize("name", ("shifted_seg", "mixed_adversarial"))
    def test_a_lifted_strategy_lifts_each_base_cover_once(self, name, monkeypatch):
        lifted_bases: list = []
        real = products.lifted_cover
        monkeypatch.setattr(
            products, "lifted_cover", lambda product, base: lifted_bases.append(base) or real(product, base)
        )
        alice, played = logged(named_strategies(CountableDiscrete())[name])
        infinitely_often_play(alice, 30, horizon=HORIZON)
        distinct = list({id(c): c for c in played}.values())
        assert len(played) == 30 > len(distinct)
        assert [id(c) for c in lifted_bases] == [id(c) for c in distinct]

    def test_lifted_replies_to_one_base_cover_are_one_object(self):
        product, lifted, base_cover = lift_strategy(named_strategies(CountableDiscrete())["seg_tower"])
        assert lifted.move(()) is lifted.move(((1, 2),)) is lifted.move(((4,), (3, 5)))
        # each answered projected sequence keeps its base cover
        projected = (project_selection(product, (4,)), project_selection(product, (3, 5)))
        assert base_cover(()) is base_cover(projected)
