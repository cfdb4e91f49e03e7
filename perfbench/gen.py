"""Seeded input generator for the benchmark workloads.

Every seeded input is drawn from a fixed pool of generator seeds, so the
digest of every job the benchmark can run is pinned in ``digests.json``. The
run seed only chooses which pool members a run uses and in which order; the
same run seed always gives the same inputs. The finite-instance pool is
stored in ``instances.json`` by ``pin.py``, because generating it means
searching every draft's game.

Finite instances are built here from scratch: a random preorder on 5-8
points, its up-sets as the topology (an Alexandrov topology, so closed under
union and intersection), and covers drawn from the proper open sets. The
generator also computes each instance's reference minimal depths with its own
bitmask game search, which shares no code with the library's solver.
"""

from __future__ import annotations

import json
import random
from functools import cached_property, lru_cache
from itertools import combinations

POOL = 64  # generator seeds per seeded input kind
INSTANCE_POOL = 256  # generator seeds for finite instances
NODE_LIMIT = 200_000  # the library solver's default budget, used by every solve
MAX_DEPTH = 8  # the library's default depth search limit
MIN_NODES, MAX_NODES = 50_000, 80_000  # predicted solver positions per finite instance
CAPS = (1, 2)  # the single-selection game, and the finite game with cap 2


def pick(seed: int, kind: str, count: int) -> list[int]:
    """`count` distinct pool members for one run seed, in run order."""
    return random.Random(f"{kind}:{seed}").sample(range(POOL), count)


def pick_instances(seed: int, specs: list["InstanceSpec"], count: int) -> list["InstanceSpec"]:
    """`count` pool instances for one run seed, in run order: one from each
    of `count` strata of the pool ranked by topology size. Set-up validates
    each picked topology in time quadratic in its number of open sets, so
    one pick per stratum keeps set-up cost nearly the same for every seed."""
    rng = random.Random(f"instance:{seed}")
    ranked = sorted(specs, key=lambda spec: (spec.n_opens, spec.gen_seed))
    n = len(ranked)
    out = [rng.choice(ranked[i * n // count : (i + 1) * n // count]) for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Finite instances


def _preorder(rng: random.Random, n: int) -> list[int]:
    """up[x]: bitmask of the points y with x <= y in a random preorder."""
    order = list(range(n))
    rng.shuffle(order)
    up = [1 << x for x in range(n)]
    density = rng.choice([0.1, 0.15, 0.2])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                up[order[i]] |= 1 << order[j]
    if rng.random() < 0.5:  # one pair of equivalent points: a preorder, not an order
        a, b = rng.sample(range(n), 2)
        up[a] |= 1 << b
        up[b] |= 1 << a
    for k in range(n):  # transitive closure
        for x in range(n):
            if up[x] >> k & 1:
                up[x] |= up[k]
    return up


def _up_sets(up: list[int]) -> list[int]:
    n = len(up)
    out = []
    for mask in range(1 << n):
        if all(up[x] & ~mask == 0 for x in range(n) if mask >> x & 1):
            out.append(mask)
    return out


def _cover(rng: random.Random, n: int, up: list[int], opens: list[int]) -> tuple[int, ...]:
    """A cover by 5-8 proper open sets, mostly minimal neighbourhoods of
    points (small members keep the minimal depth of the game above one)."""
    full = (1 << n) - 1
    proper = [s for s in opens if s and s != full]
    members: list[int] = []
    for _ in range(rng.randint(5, 8)):
        s = up[rng.randrange(n)] if rng.random() < 0.9 else rng.choice(proper)
        if s not in members:
            members.append(s)
    union = 0
    for s in members:
        union |= s
    for x in range(n):
        if not union >> x & 1:
            members.append(up[x])
            union |= up[x]
    rng.shuffle(members)
    return tuple(members)


def _selections(size: int, cap: int) -> list[tuple[int, ...]]:
    """Selections of 1-based member indices, in the order the library tries them."""
    out: list[tuple[int, ...]] = []
    for k in range(1, min(cap, size) + 1):
        out.extend(combinations(range(1, size + 1), k))
    return out


class InstanceSpec:
    """A finite game instance as plain data: the preorder (up[x] is the
    bitmask of the points above x) whose up-sets are the open sets, and the
    cover families as bitmasks. Position keys pick the family: the key of a
    history is the sum of (option index + first selected index) over its
    innings, modulo the family count, so one family means stationary."""

    def __init__(self, gen_seed: int, up: list[int], families: list[list[tuple[int, ...]]], n_opens: int | None = None):
        self.gen_seed = gen_seed
        self.up = up
        self.n = len(up)
        self.families = families
        self._n_opens = n_opens

    @cached_property
    def opens(self) -> list[int]:
        return _up_sets(self.up)

    @property
    def n_opens(self) -> int:
        """The number of open sets; stored with the pool, so ranking the pool
        enumerates no up-sets."""
        return len(self.opens) if self._n_opens is None else self._n_opens

    def to_json(self) -> dict:
        return {
            "gen_seed": self.gen_seed,
            "up": self.up,
            "families": [[list(cover) for cover in fam] for fam in self.families],
            "n_opens": self.n_opens,
            "depths": self.depths,
            "predicted_nodes": self.predicted_nodes,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "InstanceSpec":
        families = [[tuple(cover) for cover in fam] for fam in doc["families"]]
        spec = cls(doc["gen_seed"], doc["up"], families, doc["n_opens"])
        spec.depths = {int(cap): depth for cap, depth in doc["depths"].items()}
        spec.predicted_nodes = doc["predicted_nodes"]
        return spec

    @property
    def key(self) -> str:
        return f"inst{self.gen_seed}"

    @property
    def stationary(self) -> bool:
        return len(self.families) == 1

    @property
    def n_options(self) -> int:
        return len(self.families[0])

    def search(self, cap: int, depth: int) -> tuple[bool, int]:
        """Whether the second player wins at this depth, and how many
        positions a search that tries options and selections in index order,
        stopping at the first refuting option and the first winning
        selection, visits. Memoized over (depth, key, covered) states, which
        determine a position's subtree."""
        full = (1 << self.n) - 1
        r = len(self.families)
        fams = [
            [[(sel, _union(cover, sel)) for sel in _selections(len(cover), cap)] for cover in fam]
            for fam in self.families
        ]

        @lru_cache(maxsize=None)
        def visit(d: int, key: int, covered: int) -> tuple[bool, int]:
            if covered == full:
                return True, 1
            if d == 0:
                return False, 1
            nodes = 1
            for o, options in enumerate(fams[key]):
                for sel, gain in options:
                    won, count = visit(d - 1, (key + o + sel[0]) % r, covered | gain)
                    nodes += count
                    if won:
                        break
                else:
                    return False, nodes
            return True, nodes

        return visit(depth, 0, 0)

    def settle(self) -> bool:
        """Compute the reference minimal depth per cap and the predicted
        solver positions of one job; False as soon as the draft is out of
        bounds: a solve over the budget, no win up to MAX_DEPTH, a
        single-selection game won in one inning, or too many positions."""
        self.depths: dict[int, int] = {}
        self.predicted_nodes = 0
        for cap in CAPS:
            counts = []
            for d in range(1, MAX_DEPTH + 1):
                won, nodes = self.search(cap, d)
                if nodes > NODE_LIMIT:
                    return False
                counts.append(nodes)
                if won:
                    break
            else:
                return False
            self.depths[cap] = len(counts)
            self.predicted_nodes += sum(counts) + sum(counts[-2:])
            if self.depths[1] < 2 or self.predicted_nodes > MAX_NODES:
                return False
        return self.predicted_nodes >= MIN_NODES

    def min_set_cover(self) -> int:
        """Brute-force minimum number of members of the single cover whose
        union is the space (stationary single-option instances only)."""
        (cover,) = self.families[0]
        full = (1 << self.n) - 1
        for k in range(1, len(cover) + 1):
            if any(_union(cover, sel) == full for sel in combinations(range(1, len(cover) + 1), k)):
                return k
        raise ValueError(f"{self.key}: the cover does not cover")


def _union(cover: tuple[int, ...], sel: tuple[int, ...]) -> int:
    out = 0
    for i in sel:
        out |= cover[i - 1]
    return out


def finite_instance(gen_seed: int) -> InstanceSpec:
    """The pool instance for one generator seed.

    Drafts are redrawn until the single-selection game needs at least two
    innings and the solves a job makes (the minimal-depth search, then the
    confirming solves at the minimal depth and one below, for the
    single-selection game and the finite game with cap 2) visit between
    MIN_NODES and MAX_NODES positions in total, with no single solve over
    the solver budget. The band keeps the cost of a job nearly the same
    across pool members.
    """
    rng = random.Random(f"instance:{gen_seed}")
    while True:
        n = rng.choice([5, 6, 7, 8, 8])
        up = _preorder(rng, n)
        if any(u == (1 << n) - 1 for u in up):
            continue  # a point below every other has no proper neighbourhood
        opens = _up_sets(up)
        n_options = rng.choice([1, 2])
        families = [[_cover(rng, n, up, opens) for _ in range(n_options)] for _ in range(rng.choice([1, 1, 2, 3]))]
        spec = InstanceSpec(gen_seed, up, families)
        if spec.settle():
            return spec


def finite_pool() -> list[InstanceSpec]:
    """Every pool instance, generated afresh (seconds of work)."""
    return [finite_instance(g) for g in range(INSTANCE_POOL)]


def load_finite_pool(path) -> list[InstanceSpec]:
    """The pool as ``pin.py`` stored it, so a run's set-up need not redo the
    generator's searches."""
    with open(path) as fh:
        return [InstanceSpec.from_json(doc) for doc in json.load(fh)]


def ids(mask: int) -> list[int]:
    """The point ids of a bitmask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]
