"""The single-selection game, beaten through the finite-selection machinery.

A single-selection strategy is a tree of covers indexed by the opponent's
picks. The derived finite-selection strategy answers with joint refinements
of all node covers below the bound sequence pinned down so far; a play of the
derived game covering every point infinitely often lets us pick one
refinement member per inning whose union covers, and each pick names — via
its factor records — the move of the original single-selection game it
refines. The reconstructed play is legal and winning.
"""

import sys

from selectiongames import check_legal, CountableDiscrete, evaluate_win, select_sone
from selectiongames.corpus import rothberger_tree_corpus
from selectiongames.rothberger import rothberger_counterplay
from selectiongames.trees import strategy_from_tree

space = CountableDiscrete()
corpus = rothberger_tree_corpus(space)
failures: list[str] = []

for name in ("seg_tower", "shifted_seg", "singletons"):
    tree = corpus[name]
    result = rothberger_counterplay(tree, select_sone, innings=25, horizon=5)
    win = evaluate_win(result.transcript, 5)
    legal = check_legal(result.transcript, strategy_from_tree(tree))
    print(f"=== {name} ===")
    print(f"  innings played: {result.transcript.truncated_at}")
    print(f"  bound sequence (m per inning): {result.bounds[:10]}...")
    print(f"  picked indices (k per inning): {result.picked_path[:10]}...")
    within = all(r.audit_dict()['pick'] <= r.audit_dict()['bound'] for r in result.transcript.innings)
    print(f"  every pick within its bound: {within}")
    print(f"  winner at horizon 5: {win.winner}; legal: {bool(legal)}")
    print()
    if not within or win.winner != "bob" or not legal:
        failures.append(f"{name}: picks within bounds {within}, winner {win.winner}, legal {bool(legal)}")

if failures:
    sys.exit("failed: " + "; ".join(failures))
