"""Covering every point at infinitely many innings via the product lift.

One winning play covers each point once. To cover every point again and
again, lift the strategy to the product of the space with the naturals: each
cover member is copied to every level, selections project back to base moves,
and a product-covering play must keep returning to fresh levels of every
base point — which forces ever more distinct base innings to cover it.
"""

import sys

from selectiongames import check_legal, CountableDiscrete, infinitely_often_play
from selectiongames.corpus import named_strategies

space = CountableDiscrete()
failures: list[str] = []

for name in ("seg_tower", "mixed_adversarial"):
    alice = named_strategies(space)[name]
    print(f"=== {name} ===")
    for innings in (15, 30, 60):
        transcript, report, _ = infinitely_often_play(alice, innings=innings, horizon=5)
        counts = {pid: len(v) for pid, v in report.covering_innings.items()}
        print(f"  innings={innings:3d}: covering innings per point {counts}")
    legal = check_legal(transcript, alice)
    print(f"  projected play legal for the base strategy: {bool(legal)}")
    if not legal:
        failures.append(f"{name}: projected play illegal")
    print()

print("per-point covering innings for the last run (p0 shown):")
print(" ", report.covering_innings[0])

if failures:
    sys.exit("failed: " + "; ".join(failures))
