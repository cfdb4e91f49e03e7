"""Walk through the finite-selection game counterplay, step by step.

The first player (Alice) owns a strategy: a rule producing an open cover of
the space after each of the second player's (Bob's) finite selections. The
construction below turns any such strategy into a normalized tree, derives a
play for Bob, and verifies two things: the play is legal for the original
strategy, and Bob's selections cover the space up to the working horizon.
"""

import sys

from selectiongames import (
    CountableDiscrete,
    bob_counterplay_menger,
    check_legal,
    evaluate_win,
    normalize_strategy,
)
from selectiongames.corpus import named_strategies

space = CountableDiscrete()
strategies = named_strategies(space)
failures: list[str] = []

print("=== strategy: history-shifted segment covers ===")
alice = strategies["shifted_seg"]

# Normalization: every cover becomes increasing (cumulative unions), every
# reply is re-headed so its first member is the set Bob just chose. A tree
# node is a sequence of Bob's single-set choices.
tree = normalize_strategy(alice, space, finite_win_horizon=10)

result = bob_counterplay_menger(tree, raw=alice, innings=10)
print(f"Bob's tree path (one child index per inning): {result.tree_path}")

for rec in result.transcript.innings[:4]:
    audit = rec.audit_dict()
    print(
        f"  inning {rec.number}: original selection {rec.selection}, "
        f"skipped children {audit['excluded_children_probed']}, "
        f"protecting {audit['protected_points']} points"
    )

win = evaluate_win(result.transcript, horizon=10)
legal = check_legal(result.transcript, alice)
print(f"winner up to horizon 10: {win.winner}")
print(f"play is legal for the raw strategy: {bool(legal)}")
if win.winner != "bob":
    failures.append(f"shifted_seg: winner {win.winner}")
if not legal:
    failures.append("shifted_seg: play illegal")

print()
print("=== strategy with a one-set subcover: the finite-win escape ===")
alice = strategies["whole_head"]
tree = normalize_strategy(alice, space, finite_win_horizon=10)
result = bob_counterplay_menger(tree, raw=alice, innings=10)
print(f"finite win: {result.finite_win}, innings actually needed: {result.transcript.truncated_at}")
win = evaluate_win(result.transcript, 10)
print(f"winner up to horizon 10: {win.winner}")
if not result.finite_win or win.winner != "bob":
    failures.append(f"whole_head: finite win {result.finite_win}, winner {win.winner}")

if failures:
    sys.exit("failed: " + "; ".join(failures))
