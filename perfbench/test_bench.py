"""Tests of the benchmark's tracer, generator and metric table.

    python3 -m pytest -q perfbench/test_bench.py

The traced-pass tests run one untraced and one traced pass of every workload
(about two minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from selectiongames.engine import GameKind  # noqa: E402
from selectiongames.solver import solve_finite_game  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SEED = 1


@pytest.fixture(scope="module", params=run.WORKLOADS)
def passes(request):
    """One untraced and one traced pass of a workload, set-up traced too."""
    name = request.param
    tracer = Tracer()
    tracer.install()
    try:
        workload = workloads.build(name, SEED)
    finally:
        tracer.uninstall()
    setup = tracer.take()
    pinned = run.load_pinned(name)
    plain = run.run_pass(workload, pinned)
    traced = run.run_pass(workload, pinned, tracer)
    return name, plain, traced, layers.values(traced.snapshot, setup), setup


def test_traced_digests_match_untraced(passes):
    name, plain, traced, _, _ = passes
    assert not plain.failures and not traced.failures
    assert traced.digests == plain.digests
    assert plain.digests == {key: run.load_pinned(name)[key] for key in plain.digests}


def test_wrapped_calls_run_where_hot(passes):
    name, _, traced, _, setup = passes
    calls = traced.snapshot.calls + setup.calls
    cold = [label for label, hot in layers.HOT_CALLS.items() if name in hot and not calls[label]]
    assert not cold


def test_bypass_counts_are_exactly_zero(passes):
    name, _, _, values, _ = passes
    nonzero = {layer.name: values[layer.name] for layer in layers.LAYERS if name in layer.zero and values[layer.name]}
    assert not nonzero


def test_counts_repeat_across_traced_passes():
    workload = workloads.build("finite_oracle", SEED)
    workload.jobs = workload.jobs[:6]
    tracer = Tracer()
    first = run.run_pass(workload, {}, tracer).snapshot
    second = run.run_pass(workload, {}, tracer).snapshot
    assert first.calls == second.calls and first.counters == second.counters


def test_install_rebinds_every_holder_and_uninstall_restores():
    import selectiongames.spaces as spaces

    functions = [getattr(sys.modules[f"selectiongames.{m}"], path) for _, m, path, _ in TARGETS if "." not in path]
    modules = [m for n, m in sys.modules.items() if n.startswith("selectiongames")] + [workloads]
    holders = [
        (module, attr, value)
        for module in modules
        for attr, value in vars(module).items()
        if any(value is f for f in functions)
    ]
    assert len(holders) > len(functions)  # most functions are imported elsewhere too
    hint_classes = [c for c in (spaces.OpenSet, *spaces.OpenSet.__subclasses__()) if "space_hint" in vars(c)]
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr, value in holders:
            assert getattr(module, attr).__wrapped__ is value, f"{module.__name__}.{attr} is not re-bound"
        for cls in hint_classes:
            assert vars(cls)["space_hint"].__wrapped__ is not None, cls
    finally:
        tracer.uninstall()
    for module, attr, value in holders:
        assert getattr(module, attr) is value
    for cls in hint_classes:
        assert not hasattr(vars(cls)["space_hint"], "__wrapped__")


def test_stored_instances_match_the_generator():
    stored = gen.load_finite_pool(workloads.INSTANCES)
    assert len(stored) == gen.INSTANCE_POOL
    for g in (0, 1, 100, gen.INSTANCE_POOL - 1):
        assert stored[g].to_json() == gen.finite_instance(g).to_json()


def test_instance_picks_keep_setup_cost_level():
    stored = gen.load_finite_pool(workloads.INSTANCES)
    mean = sum(spec.n_opens**2 for spec in stored) / len(stored) * workloads.FINITE_GENERATED
    for seed in range(50):
        picked = gen.pick_instances(seed, stored, workloads.FINITE_GENERATED)
        assert len({spec.gen_seed for spec in picked}) == workloads.FINITE_GENERATED
        assert abs(sum(spec.n_opens**2 for spec in picked) / mean - 1) < 0.2


def test_every_wrapped_call_has_a_hot_workload():
    assert set(layers.HOT_CALLS) == {label for label, *_ in TARGETS}


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit, layer.better) for layer in layers.LAYERS
    ]


@pytest.mark.parametrize("gen_seed", [0, 1, 2, 3])
def test_predicted_solver_nodes_match_the_library(gen_seed):
    spec = gen.finite_instance(gen_seed)
    inst = workloads.library_instance(spec)
    for cap in gen.CAPS:
        game = GameKind("single" if cap == 1 else "finite")
        for depth in range(1, spec.depths[cap] + 1):
            result = solve_finite_game(inst, game, depth, cap)
            assert (result.winner == "bob", result.nodes) == spec.search(cap, depth)


def test_timed_passes_are_a_fixed_count_spread_over_the_run():
    for n in (3, 6, 12, 13, 20):
        chosen = run.spread_out(list(range(n)), 6)
        assert len(chosen) == min(n, 6) and len(set(chosen)) == len(chosen)
        assert chosen[0] == 0 and chosen[-1] == n - 1 and chosen == sorted(chosen)


def test_tail_percentile_leaves_ten_jobs_beyond():
    for n in (11, 36, 66, 200):
        pct, value = run.tail([float(i) for i in range(n)])
        assert sum(v > value for v in range(n)) >= run.TAIL_BEYOND
        assert sum(v > value for v in range(n)) < run.TAIL_BEYOND + n / 100 + 1


def test_reference_times_cancel_a_host_phase():
    # the host turns 1.6x slower after the third job; every job does the same work
    loop = [run.REFERENCE_LOOP_S * (1.6 if q >= 3 else 1.0) for q in range(7)]
    jobs = {f"j{q}": 0.02 * (1.6 if q >= 3 else 1.0) for q in range(6)}
    result = run.PassResult(False, 1.0, jobs, loop, {}, {})
    times = result.reference_job_s()
    assert times["j0"] == pytest.approx(0.02) and times["j5"] == pytest.approx(0.02)
    assert all(0.75 * 0.02 < t < 1.3 * 0.02 for t in times.values())
