"""The per-layer metrics: names, units, and the predictions written down
before any optimisation, and how each value is read from a traced pass.

Each row names the end-to-end metrics it should move, the workloads it should
move them on, and the workloads where it should not move; ``zero`` lists the
workloads where its exact count must stay 0 (the bypass cells).
``HOT_CALLS`` lists, per wrapped call, the workloads where it must run.
"""

from __future__ import annotations

from dataclasses import dataclass

from tracer import Snapshot, Span

CP, TC, FO = "counterplay", "tail_cover", "finite_oracle"


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]
    on: tuple[str, ...]
    not_on: tuple[str, ...] = ()
    zero: tuple[str, ...] = ()


def _rows(names, unit, better, moves, on, not_on=(), zero=()):
    return [Layer(n, unit, better, moves, on, not_on, zero) for n in names]


RUN = ("run_s",)
MEMBERSHIP = (RUN + ("job_p50_s",), (CP, TC), (FO,))

LAYERS: list[Layer] = [
    *_rows(["spaces.member.calls", "spaces.space_hint.calls", "spaces.describe.calls"], "count", "lower", *MEMBERSHIP),
    *_rows(["spaces.member.self_s", "spaces.describe.self_s"], "s", "lower", *MEMBERSHIP),
    Layer("spaces.FiniteTopological.init_s", "s", "lower", ("setup_s",), (FO,)),
    Layer("spaces.topology_pairs_checked", "count", "lower", ("setup_s",), (FO,)),
    *_rows(["covers.IndexedCover.sets.calls", "covers.witness_of.calls"], "count", "lower", RUN, (TC,), (FO,)),
    *_rows(
        ["covers.IndexedCover.sets.self_s", "covers.witness_of.self_s", "covers.is_cover_up_to.self_s"],
        "s", "lower", RUN, (TC,), (FO,),
    ),
    Layer("hurewicz.ExclusionOracle.omits.calls", "count", "lower", RUN + ("job_tail_s",), (CP,), (FO,)),
    *_rows(
        ["hurewicz.ExclusionOracle.omits.self_s", "hurewicz.bob_counterplay_menger.self_s"],
        "s", "lower", RUN + ("job_tail_s",), (CP,), (FO,),
    ),
    Layer("hurewicz.probe_yield", "ratio", "higher", RUN + ("job_tail_s",), (CP,), (FO,)),
    Layer("hurewicz.finite_wins", "count", "lower", RUN + ("job_tail_s",), (CP,), (FO,)),
    *_rows(
        ["hurewicz.ExclusionOracle.materialize.calls", "hurewicz.excluded_nodes", "hurewicz.cofinite_intersection.calls"],
        "count", "lower", RUN + ("peak_rss_mb",), (TC,), (CP, FO), zero=(CP, FO),
    ),
    *_rows(
        ["hurewicz.ExclusionOracle.materialize.self_s", "hurewicz.cofinite_intersection.self_s"],
        "s", "lower", RUN + ("peak_rss_mb",), (TC,), (CP, FO),
    ),
    *_rows(["pairing.decode_tuple.calls", "pairing.encode_tuple.calls"], "count", "lower", RUN + ("peak_rss_mb",), (TC,), (FO,)),
    *_rows(
        ["pairing.encode_tuple.self_s", "pairing.excluded_set_index.self_s"],
        "s", "lower", RUN + ("peak_rss_mb",), (TC,), (FO,),
    ),
    Layer("pairing.excluded_index_bits", "bit", "lower", RUN + ("peak_rss_mb",), (TC,), (FO,)),
    Layer("trees.TreeStrategy.cover_at.calls", "count", "lower", RUN, (CP,), (TC, FO)),
    Layer("trees.TreeStrategy.cover_at.self_s", "s", "lower", RUN, (CP,), (TC, FO)),
    Layer("trees.box_paths.calls", "count", "lower", RUN, (CP,), (TC, FO)),
    Layer("trees.box_nodes", "count", "lower", RUN, (CP,), (TC, FO), zero=(TC, FO)),
    *_rows(["products.project_selection.calls", "products.lifted_cover.calls"], "count", "lower", RUN, (CP,), (TC, FO), zero=(TC, FO)),
    *_rows(
        ["products.project_selection.self_s", "products.infinitely_often_play.self_s"], "s", "lower", RUN, (CP,), (TC, FO)
    ),
    Layer("rothberger.joint_refinement_cover.calls", "count", "lower", RUN, (CP,), (TC, FO), zero=(TC, FO)),
    Layer("rothberger.joint_refinement_cover.self_s", "s", "lower", RUN, (CP,), (TC, FO)),
    Layer("rothberger.often_attempts", "ratio", "lower", RUN, (CP,), (TC, FO)),
    Layer("evasion.counterplay_large.self_s", "s", "lower", RUN + ("peak_rss_mb",), (CP,), (TC, FO)),
    Layer("evasion.greedy_index_function.calls", "count", "lower", RUN + ("peak_rss_mb",), (CP,), (TC, FO), zero=(TC, FO)),
    Layer("evasion.strip_fallbacks", "count", "lower", RUN + ("peak_rss_mb",), (CP,), (TC, FO)),
    *_rows(["engine.check_legal.self_s", "engine.evaluate_win.self_s"], "s", "lower", RUN, (CP,), (FO,)),
    Layer("engine.make_inning.calls", "count", "lower", RUN, (CP,), (FO,)),
    Layer("engine.make_inning.self_s", "s", "lower", RUN, (CP,), (FO,)),
    Layer("solver.nodes", "count", "lower", RUN + ("job_tail_s",), (FO,), (CP, TC), zero=(CP, TC)),
    Layer("solver.solve_finite_game.calls", "count", "lower", RUN + ("job_tail_s",), (FO,), (CP, TC), zero=(CP, TC)),
    Layer("solver.solve_finite_game.self_s", "s", "lower", RUN + ("job_tail_s",), (FO,), (CP, TC)),
    Layer("solver.nodes_per_s", "1/s", "higher", RUN + ("job_tail_s",), (FO,), (CP, TC)),
    Layer("solver.cross_check.self_s", "s", "lower", RUN + ("job_tail_s",), (FO,), (CP, TC)),
    Layer("scenarios.transcript_records.self_s", "s", "lower", RUN, (CP,)),
    Layer("scenarios.transcript_bytes", "byte", "lower", RUN, (CP,)),
    Layer("trace.overhead_ratio", "ratio", "lower", (), (CP, TC, FO)),
]

# the workloads on which each wrapped call must run at least once
HOT_CALLS = {
    "spaces.member": (CP, TC),
    "spaces.space_hint": (CP, TC),
    "spaces.describe": (CP, TC),
    "spaces.FiniteTopological": (FO,),
    "covers.IndexedCover.sets": (TC,),
    "covers.witness_of": (TC,),
    "covers.is_cover_up_to": (TC,),
    "hurewicz.normalize_strategy": (CP, TC),
    "hurewicz.bob_counterplay_menger": (CP,),
    "hurewicz.tail_derived_cover": (TC,),
    "hurewicz.cofinite_intersection": (TC,),
    "hurewicz.ExclusionOracle.omits": (CP,),
    "hurewicz.ExclusionOracle.materialize": (TC,),
    "pairing.decode_tuple": (TC,),
    "pairing.encode_tuple": (TC,),
    "pairing.excluded_set_index": (TC,),
    "trees.TreeStrategy.cover_at": (CP,),
    "trees.box_paths": (CP,),
    "products.infinitely_often_play": (CP,),
    "products.project_selection": (CP,),
    "products.lifted_cover": (CP,),
    "rothberger.rothberger_counterplay": (CP,),
    "rothberger.joint_refinement_cover": (CP,),
    "evasion.counterplay_large": (CP,),
    "evasion.greedy_index_function": (CP,),
    "engine.check_legal": (CP,),
    "engine.evaluate_win": (CP,),
    "engine.make_inning": (CP,),
    "solver.solve_finite_game": (FO,),
    "solver.minimal_winning_depth": (FO,),
    "solver.cross_check": (FO,),
    "scenarios.transcript_records": (CP,),
}


def _often_attempts(spans: list[Span]) -> float:
    by_id = {s.id: s for s in spans}
    roth = sum(s.name == "rothberger.rothberger_counterplay" for s in spans)
    nested = sum(
        s.name == "products.infinitely_often_play"
        and s.parent is not None
        and by_id[s.parent].name == "rothberger.rothberger_counterplay"
        for s in spans
    )
    return nested / roth if roth else 0.0


def values(run: Snapshot, setup: Snapshot) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_ratio, from one traced
    pass and the traced set-up (finite spaces are built during set-up)."""
    out: dict[str, float] = {}
    for layer in LAYERS:
        name = layer.name
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = run.calls[base]
        elif kind == "self_s":
            out[name] = run.self_ns[base] / 1e9
    out["spaces.FiniteTopological.init_s"] = setup.self_ns["spaces.FiniteTopological"] / 1e9
    out["spaces.topology_pairs_checked"] = setup.counters["spaces.topology_pairs_checked"]
    innings = run.counters["hurewicz.innings_played"]
    attempts = innings + run.counters["hurewicz.children_skipped"]
    out["hurewicz.probe_yield"] = innings / attempts if attempts else 0.0
    for name in (
        "hurewicz.finite_wins",
        "hurewicz.excluded_nodes",
        "pairing.excluded_index_bits",
        "trees.box_nodes",
        "evasion.strip_fallbacks",
        "solver.nodes",
        "scenarios.transcript_bytes",
    ):
        out[name] = run.counters[name]
    solve_s = run.self_ns["solver.solve_finite_game"] / 1e9
    out["solver.nodes_per_s"] = run.counters["solver.nodes"] / solve_s if solve_s else 0.0
    out["rothberger.often_attempts"] = _often_attempts(run.spans)
    return out
