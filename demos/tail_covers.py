"""The engine room of the counterplay: depth families and their cofinite
intersections.

For a normalized strategy tree, collect every set the first player can offer
at depth n. That family is a *tail cover*: intersecting any cofinite
subfamily of it still leaves an open set, and those intersections again cover
the space. The symbolic computation below never materializes the (infinite)
family; it reduces each intersection to a finite expression and cross-checks
it against a brute-force scan.
"""

import sys

from selectiongames import (
    CofiniteSpec,
    CountableDiscrete,
    cofinite_intersection,
    is_cover_up_to,
    level_family,
    member,
    normalize_strategy,
    tail_derived_cover,
)
from selectiongames.corpus import named_strategies

space = CountableDiscrete()
tree = normalize_strategy(named_strategies(space)["seg_tower"], space)

print("level-1 family = the root cover (increasing), so a cofinite")
print("intersection is just the least surviving member:")
fam1 = level_family(tree, 1)
for excluded in [frozenset(), frozenset({1}), frozenset({1, 2})]:
    out = cofinite_intersection(fam1, CofiniteSpec(excluded))
    covered = [i for i in range(6) if member(out, space.point(i))]
    print(f"  exclude {sorted(excluded) or '{}'}: intersection contains points {covered}")

print()
print("level-2 family: intersections reduce to a level-1 instance plus")
print("finitely many named node sets. brute-force agreement over 40 members:")
fam2 = level_family(tree, 2)
spec = CofiniteSpec(frozenset({1, 3, 7}))
sym = cofinite_intersection(fam2, spec)
for i in range(8):
    p = space.point(i)
    brute = all(member(fam2.sets(j), p) for j in range(1, 41) if j not in spec.excluded)
    assert member(sym, p) == brute
    print(f"  p{i}: symbolic={member(sym, p)} brute={brute}")

print()
print("the family of all such intersections is itself a cover, with a")
print("constructive witness (the set of depth-2 nodes omitting the point):")
derived = tail_derived_cover(fam2)
verdict = is_cover_up_to(derived, 30)
print(f"  is_cover_up_to(30): {bool(verdict)}")
if not verdict:
    sys.exit(f"failed: tail-derived cover misses {verdict.failing_point!r}")
