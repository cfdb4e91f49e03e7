"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Derived expectations are
computed by independent brute force (membership scans, bitmask set algebra,
exhaustive enumeration) inside this module, never by the code path under
check. Tolerances are exact: every check here is a boolean property.
"""

import itertools
import json
import random

from selectiongames.corpus import (
    appendix_tree_corpus,
    bundled_instances,
    named_strategies,
    rothberger_tree_corpus,
    strategy_corpus,
)
from selectiongames.covers import CofiniteSpec, is_cover_up_to
from selectiongames.engine import GameKind, MENGER_GAME, Transcript, check_legal, evaluate_win, make_inning, replay
from selectiongames.evasion import (
    BaireFunction,
    counterplay_large,
    greedy_index_function,
    wedge_tree,
)
from selectiongames.hurewicz import (
    bob_counterplay_menger,
    cofinite_intersection,
    level_family,
    normalize_strategy,
    tail_derived_cover,
)
from selectiongames.products import infinitely_often_play
from selectiongames.rothberger import rothberger_counterplay, select_one_per_family
from selectiongames.scenarios import run_scenario
from selectiongames.selectors import select_sone
from selectiongames.solver import (
    counterplay_bob_strategy,
    cross_check,
    deterministic_strategy,
    minimal_winning_depth,
    restrict_option,
    solve_finite_game,
)
from selectiongames.spaces import (
    CountableDiscrete,
    describe,
    extension,
    initial_segment,
    member,
    whole,
)
from selectiongames.trees import strategy_from_tree

N = CountableDiscrete()
SEEDED_COUNT = 20
CORPUS_SEED = 0


def announce(number: int, name: str, ok: bool):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def full_corpus():
    return strategy_corpus(N, n_random=SEEDED_COUNT, seed=CORPUS_SEED)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_normalization_soundness():
    """Increasing + head invariants at every visited node over 50 random
    plays of length 6 per strategy; back-translated plays are legal."""
    corpus = full_corpus()
    assert len(corpus) >= 25
    rng = random.Random(101)
    ok = True
    for name, alice in corpus.items():
        tree = normalize_strategy(alice, N)
        for _ in range(50):
            path = tuple(rng.randint(1, 4) for _ in range(6))
            for depth in range(1, 7):
                node = path[:depth]
                # head condition: the first member of the node's cover is the
                # node's own set, structurally
                ok = ok and describe(tree.set_at(node + (1,))) == describe(tree.set_at(node))
                # increasing: adjacent members nested, sampled extensionally
                cover = tree.cover_at(node[:-1])
                for j in (node[-1], node[-1] + 1):
                    for i in range(8):
                        p = N.point(i)
                        if member(cover.sets(j), p) and not member(cover.sets(j + 1), p):
                            ok = False
            # back-translated play is legal for the raw strategy
            moves = tree.back_map(path)
            covers = replay(alice, moves)
            records = tuple(
                make_inning(MENGER_GAME, n, cover, indices)
                for n, (cover, indices) in enumerate(zip(covers, moves), start=1)
            )
            transcript = Transcript(game=MENGER_GAME, innings=records)
            ok = ok and bool(check_legal(transcript, alice))
        if not ok:
            break
    announce(1, "normalization soundness", ok)


# -- criterion 2 -------------------------------------------------------------


def spec_grid(candidates, max_exclusions=3):
    """All exclusion sets of size <= 3 drawn from the candidate indices."""
    out = [frozenset()]
    for size in range(1, max_exclusions + 1):
        out.extend(frozenset(c) for c in itertools.combinations(candidates, size))
    return out


def test_criterion_2_tail_cover_lemma():
    """Symbolic cofinite intersections agree exactly with brute force over
    the 25-index grid at levels 1..3; derived covers pass coverage at
    horizon 50; on finite models every intersection's extension is open."""
    candidates = list(range(1, 26))  # a 5x5 grid of member indices
    specs = spec_grid(candidates)
    scan = 40  # brute-force sub-enumeration bound (past every candidate)
    ok = True

    # countable model: representative normalized tree
    tree = normalize_strategy(named_strategies(N)["seg_tower"], N)
    for level in (1, 2, 3):
        fam = level_family(tree, level)
        pts = N.points(50)
        # bitmask per point: bit j-1 set iff the point is OUTSIDE member j
        omit = {}
        for p in pts:
            mask = 0
            for j in range(1, scan + 1):
                if not member(fam.sets(j), p):
                    mask |= 1 << (j - 1)
            omit[p.id] = mask
        full = (1 << scan) - 1
        for excluded in specs:
            excl_mask = 0
            for j in excluded:
                excl_mask |= 1 << (j - 1)
            sym = cofinite_intersection(fam, CofiniteSpec(excluded))
            survivors = full & ~excl_mask
            for p in pts:
                brute = (omit[p.id] & survivors) == 0
                if member(sym, p) != brute:
                    ok = False
        cover = tail_derived_cover(fam)
        if not is_cover_up_to(cover, 50):
            ok = False

    # finite models: exhaustive membership, and openness of every extension
    finite_spaces = {}
    for inst in bundled_instances().values():
        finite_spaces.setdefault(inst.space.tag, inst)
    for inst in finite_spaces.values():
        space = inst.space
        ftree = normalize_strategy(deterministic_strategy(inst), space)
        for level in (1, 2, 3):
            fam = level_family(ftree, level)
            pts = space.all_points()
            omit = {}
            for p in pts:
                mask = 0
                for j in range(1, scan + 1):
                    if not member(fam.sets(j), p):
                        mask |= 1 << (j - 1)
                omit[p.id] = mask
            full = (1 << scan) - 1
            for excluded in specs:
                excl_mask = 0
                for j in excluded:
                    excl_mask |= 1 << (j - 1)
                sym = cofinite_intersection(fam, CofiniteSpec(excluded))
                survivors = full & ~excl_mask
                for p in pts:
                    if member(sym, p) != ((omit[p.id] & survivors) == 0):
                        ok = False
                if not space.is_open(extension(sym, space)):
                    ok = False
            if not is_cover_up_to(tail_derived_cover(fam), 50):
                ok = False
    announce(2, "tail-cover lemma", ok)


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_menger_counterplay():
    corpus = full_corpus()
    grid = [(5, 5), (10, 10), (20, 20)]
    ok = True
    for name, alice in corpus.items():
        tree = normalize_strategy(alice, N, finite_win_horizon=20)
        for horizon, innings in grid:
            result = bob_counterplay_menger(tree, raw=alice, innings=innings)
            if not evaluate_win(result.transcript, horizon).bob_wins:
                ok = False
            if not check_legal(result.transcript, alice):
                ok = False
    announce(3, "menger counterplay wins", ok)


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_infinitely_often():
    corpus = full_corpus()
    named = set(named_strategies(N))
    ok = True
    for name, alice in corpus.items():
        _, r60, _ = infinitely_often_play(alice, innings=60, horizon=5)
        if name in named:
            # independent 25-inning run; also validates prefix consistency
            _, r25, _ = infinitely_often_play(alice, innings=25, horizon=5)
            for pid, innings25 in r25.covering_innings.items():
                if innings25 != tuple(n for n in r60.covering_innings[pid] if n <= 25):
                    ok = False
        else:
            r25 = None
        mult25 = {
            pid: len([n for n in v if n <= 25]) for pid, v in r60.covering_innings.items()
        }
        if min(mult25.values()) < 2 or r60.min_multiplicity() < 3:
            ok = False
        # nondecreasing in innings
        for pid, v in r60.covering_innings.items():
            if len(v) < mult25[pid]:
                ok = False
    announce(4, "infinitely-often multiplicities", ok)


# -- criterion 5 -------------------------------------------------------------


def family_sequences_for_lemma():
    """Ten-plus family sequences satisfying the working hypothesis at
    horizon 10 (the point targeted at stage i+1 lies in >= i+1 families)."""
    seqs = []
    seqs.append([[initial_segment(N, i + 9)] for i in range(30)])
    seqs.append([[whole(N)] for _ in range(30)])
    seqs.append([[initial_segment(N, 9), whole(N)] for _ in range(30)])
    seqs.append([[initial_segment(N, i + 9), initial_segment(N, 0)] for i in range(30)])
    seqs.append([[initial_segment(N, 9 + (i % 3))] for i in range(30)])
    rng = random.Random(55)
    for k in range(6):
        fams = []
        for i in range(30):
            base = [initial_segment(N, rng.randint(9, 14))]
            if rng.random() < 0.5:
                base.append(initial_segment(N, rng.randint(0, 5)))
            rng.shuffle(base)
            fams.append(base)
        seqs.append(fams)
    return seqs


def test_criterion_5_one_per_family():
    ok = True
    seqs = family_sequences_for_lemma()
    assert len(seqs) >= 10
    for fams in seqs:
        chosen = select_one_per_family(lambda i: fams[i - 1], len(fams), select_sone, N, horizon=10)
        if [i for i, _ in chosen] != list(range(1, len(fams) + 1)):
            ok = False
        for i, m in chosen:
            if not 1 <= m <= len(fams[i - 1]):
                ok = False
        chosen_sets = [fams[i - 1][m - 1] for i, m in chosen]
        for i in range(10):
            if not any(member(s, N.point(i)) for s in chosen_sets):
                ok = False
    announce(5, "one selection per family covers", ok)


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_rothberger_counterplay():
    corpus = rothberger_tree_corpus(N, n_random=SEEDED_COUNT, seed=CORPUS_SEED)
    assert len(corpus) >= 25
    ok = True
    for name, tree in corpus.items():
        result = rothberger_counterplay(tree, select_sone, innings=25, horizon=5)
        if result.transcript.truncated_at < 25:
            ok = False
        if not evaluate_win(result.transcript, 5).bob_wins:
            ok = False
        if not check_legal(result.transcript, strategy_from_tree(tree)):
            ok = False
        for rec in result.transcript.innings:
            audit = rec.audit_dict()
            if len(rec.selection) != 1 or audit["pick"] > audit["bound"]:
                ok = False
    announce(6, "rothberger counterplay", ok)


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_large_cover_suite():
    ok = True
    rng = random.Random(77)
    corpus = appendix_tree_corpus(N, n_random=3, seed=CORPUS_SEED)

    # monotonicity: 200 sampled (tau <= sigma, m <= n) quadruples per tree
    for name, tree in corpus.items():
        wedged = wedge_tree(tree)
        for _ in range(200):
            length = rng.randint(1, 3)
            tau = tuple(rng.randint(1, 3) for _ in range(length))
            sigma = tuple(t + rng.randint(0, 2) for t in tau)
            m = rng.randint(1, 4)
            n = m + rng.randint(0, 3)
            small = wedged.set_at(sigma + (m,))
            big = wedged.set_at(tau + (n,))
            for i in range(0, 10, 2):
                p = N.point(i)
                if member(small, p) and not member(big, p):
                    ok = False

    # upper continuity, exhaustively on the bundled finite models
    finite_spaces = {}
    for inst in bundled_instances().values():
        finite_spaces.setdefault(inst.space.tag, inst)
    for inst in finite_spaces.values():
        space = inst.space
        ftree = wedge_tree(normalize_strategy(deterministic_strategy(inst), space))
        traces = {p.id: greedy_index_function(ftree, p) for p in space.all_points()}
        for n in range(1, 5):
            for m in range(1, 5):
                level_set = frozenset(pid for pid, f in traces.items() if f(n) <= m)
                if not space.is_open(level_set):
                    ok = False

    # the crossing property for 100 sampled (point, function) pairs
    tested = 0
    while tested < 100:
        name = rng.choice(list(corpus))
        wedged = wedge_tree(corpus[name])
        x = N.point(rng.randint(0, 5))
        vals = tuple(rng.randint(1, 6) for _ in range(6))
        g = BaireFunction(eval_raw=lambda n, v=vals: v[n - 1], description="probe")
        f = greedy_index_function(wedged, x)
        crossing = next((n for n in range(1, 7) if f(n) <= g(n)), None)
        if crossing is None:
            continue
        tested += 1
        node = tuple(g(i) for i in range(1, crossing + 1))
        if not member(wedged.set_at(node), x):
            ok = False

    # the counterplay itself: multiplicity >= 2 at (sample 5, innings 40)
    sample = N.points(5)
    for name, tree in corpus.items():
        if name == "uniform_segments":
            continue  # depth-independent covers: evasion path products are exponential
        result = counterplay_large(tree, sample, innings=40)
        if result.report.min_multiplicity() < 2:
            ok = False
        if result.stripped_play and not result.report.distinct_selections:
            ok = False
    announce(7, "large-cover suite", ok)


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_oracle_agreement():
    instances = bundled_instances()
    assert len(instances) >= 6
    G1 = GameKind("single")
    GFIN = GameKind("finite")
    # hand-enumerated expectations: (instance, game, cap) -> minimal depth.
    # In the sierpinski and chain spaces the only open set containing the top
    # point is the whole space, so every cover contains it and one pick wins;
    # the valley cover's two maximal opens each miss an endpoint, so the
    # single-selection game needs two innings.
    expected_depths = {
        ("one_point", "single", 1): 1,
        ("two_point_singletons", "single", 1): 2,
        ("two_point_singletons", "finite", 2): 1,
        ("two_point_options", "single", 1): 2,
        ("three_point_singletons", "single", 1): 3,
        ("three_point_singletons", "finite", 3): 1,
        ("four_point_pairs", "single", 1): 2,
        ("four_point_pairs", "finite", 2): 1,
        ("sierpinski_game", "single", 1): 1,
        ("chain_game", "single", 1): 1,
        ("valley_game", "single", 1): 2,
        ("valley_game", "finite", 2): 1,
    }
    ok = True
    for (name, arity, cap), depth in expected_depths.items():
        game = G1 if arity == "single" else GFIN
        if minimal_winning_depth(instances[name], game, cap) != depth:
            ok = False
        if solve_finite_game(instances[name], game, depth, cap).winner != "bob":
            ok = False
        if depth > 1 and solve_finite_game(instances[name], game, depth - 1, cap).winner != "alice":
            ok = False
    # constructed counterplays pass the oracle cross-check on every line
    for name, inst in instances.items():
        n_options = len(inst.options_at(()))
        for opt in range(n_options):
            line = restrict_option(inst, opt) if n_options > 1 else inst
            cap = max(len(c) for c in line.options_at(()))
            bob = counterplay_bob_strategy(line)
            if not cross_check(bob, line, GFIN, selection_cap=cap):
                ok = False
    announce(8, "oracle agreement", ok)


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    configs = [
        {
            "space": {"kind": "countable"},
            "construction": "hurewicz",
            "strategy": "shifted_seg",
            "grid": [{"horizon": 8, "innings": 8}],
        },
        {
            "space": {"kind": "countable"},
            "construction": "paw-cor",
            "strategy": {"seeded": 4},
            "grid": [{"horizon": 4, "innings": 15}],
        },
        {
            "space": {"kind": "countable"},
            "construction": "appendix",
            "strategy": "max_shifted",
            "grid": [{"innings": 12, "sample": 4}],
        },
    ]
    ok = True
    for k, cfg in enumerate(configs):
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        run_scenario(str(path), output_dir=str(tmp_path / f"a{k}"))
        run_scenario(str(path), output_dir=str(tmp_path / f"b{k}"))
        a = (tmp_path / f"a{k}" / "transcript.jsonl").read_bytes()
        b = (tmp_path / f"b{k}" / "transcript.jsonl").read_bytes()
        if a != b:
            ok = False
    announce(9, "seeded determinism", ok)
