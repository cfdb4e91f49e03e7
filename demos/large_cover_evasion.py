"""The large-cover game: win by evading the greedy index traces.

Preprocess the strategy tree twice: strip each node's cover of the sets
chosen on the way there (so no selection ever repeats), and replace each node
set by the intersection of the matching members at all nodes below it (so the
covers get finer as the node sequence grows). For each point, the greedy
trace walks the tree taking the least child whose set contains it; whenever a
function g crosses above a trace for the first time, the set at g's prefix
grabs that point. The evasion function g is a diagonal maximum over sampled
traces — including the traces pinned to g's own prefixes, which is what makes
the grabbing repeat forever.
"""

import sys

from selectiongames import CountableDiscrete, check_legal, counterplay_large
from selectiongames.corpus import appendix_tree_corpus
from selectiongames.evasion import greedy_index_function, wedge_tree
from selectiongames.trees import strategy_from_tree

space = CountableDiscrete()
corpus = appendix_tree_corpus(space)
failures: list[str] = []

print("greedy traces through the wedged depth-shifted tree:")
wedged = wedge_tree(corpus["depth_shifted"])
for pid in (0, 2, 4):
    f = greedy_index_function(wedged, space.point(pid))
    print(f"  trace(p{pid}) = {[f(n) for n in range(1, 8)]}")

print()
sample = space.points(5)
for name in ("depth_shifted", "max_shifted", "whole_tree"):
    result = counterplay_large(corpus[name], sample, innings=40)
    legal = check_legal(result.transcript, strategy_from_tree(corpus[name]))
    print(f"=== {name} ===")
    print(f"  evasion prefix: {result.evasion_prefix[:10]}...")
    print(f"  covering innings per sampled point: "
          f"{ {pid: len(v) for pid, v in result.report.covering_innings.items()} }")
    print(f"  selections pairwise distinct: {result.report.distinct_selections} "
          f"(stripped play: {result.stripped_play}); legal: {bool(legal)}")
    print()
    if result.stripped_play and not result.report.distinct_selections:
        failures.append(f"{name}: stripped play repeats a selection")
    if not legal:
        failures.append(f"{name}: play illegal")

if failures:
    sys.exit("failed: " + "; ".join(failures))
