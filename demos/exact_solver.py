"""The independent ground truth: exact backward induction on finite games.

Every constructed counterplay can be cross-checked on finite instances: the
solver enumerates all selections and all listed first-player options, so its
winner and minimal winning depth are exact. Finite spaces are compact, so the
second player always wins at sufficient depth; the interesting output is how
deep, and whether a constructed strategy matches it.
"""

import sys

from selectiongames import GameKind, cross_check, minimal_winning_depth, solve_finite_game
from selectiongames.corpus import bundled_instances
from selectiongames.covers import FiniteSelection
from selectiongames.solver import counterplay_bob_strategy, decision_table, restrict_option

G1 = GameKind("single")
GFIN = GameKind("finite")
instances = bundled_instances()
failures: list[str] = []

print("minimal winning depths (exact):")
two = instances["two_point_singletons"]
print(f"  two points, singleton cover, one pick per inning : {minimal_winning_depth(two, G1, 1)}")
print(f"  same game, two picks allowed                     : {minimal_winning_depth(two, GFIN, 2)}")
valley = instances["valley_game"]
print(f"  valley space, one pick per inning                : {minimal_winning_depth(valley, G1, 1)}")

print()
print("depth-1 losses are real: the decision table names the refuting option")
result = solve_finite_game(two, G1, 1, 1)
refuting = decision_table(two, G1, 1, 1).get(("alice", (), ()))
print(f"  two-point singleton game at depth 1: winner = {result.winner}, refuting option = {refuting}")
if result.winner != "alice":
    failures.append("two-point singleton game won by bob at depth 1")
if refuting is None:
    failures.append("no refuting option at the root of the two-point singleton game")

print()
print("constructed counterplays vs the oracle, on every line:")
for name, inst in instances.items():
    n_options = len(inst.options_at(()))
    for opt in range(n_options):
        line = restrict_option(inst, opt) if n_options > 1 else inst
        cap = max(len(c) for c in line.options_at(()))
        verdict = cross_check(counterplay_bob_strategy(line), line, GFIN, selection_cap=cap)
        print(f"  {name:24s} option {opt}: {'pass' if verdict else 'FAIL ' + verdict.reason}")
        if not verdict:
            failures.append(f"{name} option {opt}: {verdict.reason}")

print()
print("and a deliberately bad second player is refuted:")
bad = lambda cover, inning: FiniteSelection(cover, (1,))
verdict = cross_check(bad, two, GFIN, selection_cap=2)
print(f"  always-pick-first on the two-point game: pass={bool(verdict)} ({verdict.reason})")
if verdict:
    failures.append("always-pick-first was not refuted")

if failures:
    sys.exit("failed: " + "; ".join(failures))
