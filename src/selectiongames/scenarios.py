"""Config-driven scenario runner.

A scenario document (JSON) names a space model, a construction, a strategy
from the built-in corpus (or a seeded one), and a grid of check parameters;
running it executes the construction, writes a line-delimited transcript file
and a JSON report of verdicts, and returns exit status 0 exactly when every
verdict passed.

Config keys:
    space         {"kind": "countable"} or
                  {"kind": "finite", "points": n, "topology": [[...], ...]}
    construction  "hurewicz" | "paw-cor" | "rothberger" | "appendix" | "oracle"
    strategy      corpus name, {"seeded": k}, or (appendix) tree corpus name
    grid          list of {"horizon": h, "innings": n, "multiplicity": m,
                  "sample": s, "node_budget": b} entries (keys as relevant)
    instance      (oracle) bundled instance name
    game          (oracle) "single" | "finite"; cap: selection cap
    seed          integer seed for seeded strategies (default 0)

Transcript files carry one JSON record per inning (after a meta record):
inning number, the cover description prefix, selection indices, the
back-translated original move, and the construction's audit fields.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .corpus import (
    appendix_tree_corpus,
    bundled_instances,
    rothberger_tree_corpus,
    seeded_strategy,
    strategy_corpus,
)
from .engine import GameKind, Transcript, check_legal, evaluate_win
from .errors import ConfigError
from .evasion import counterplay_large
from .hurewicz import bob_counterplay_menger, normalize_strategy
from .products import infinitely_often_play
from .rothberger import rothberger_counterplay
from .selectors import select_sone
from .solver import minimal_winning_depth, solve_finite_game
from .spaces import CountableDiscrete, FiniteTopological, SpaceModel
from .trees import strategy_from_tree


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def space_from_config(config: dict) -> SpaceModel:
    if "space" not in config:
        raise ConfigError("missing required key", key="space")
    spec = config["space"]
    kind = spec.get("kind")
    if kind == "countable":
        return CountableDiscrete()
    if kind == "finite":
        if "points" not in spec or "topology" not in spec:
            raise ConfigError("finite space needs 'points' and 'topology'", key="space")
        return FiniteTopological(spec["points"], spec["topology"])
    raise ConfigError(f"unknown space kind {kind!r}", key="space")


def _jsonable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    return value


def transcript_records(t: Transcript) -> list[dict]:
    """The serializable projection of a transcript: a meta record followed by
    one record per inning."""
    records = [
        {
            "type": "meta",
            "game": {"arity": t.game.arity, "multiplicity": t.game.multiplicity},
            "innings": t.truncated_at,
            "label": t.label,
        }
    ]
    for rec in t.innings:
        records.append(
            {
                "type": "inning",
                "inning": rec.number,
                "cover": _jsonable(rec.cover_prefix),
                "selection": list(rec.selection),
                "original_move": _jsonable(rec.original_move),
                "audit": _jsonable(rec.audit_dict()),
            }
        )
    return records


def emit_transcript(t: Transcript, destination: str) -> None:
    """Write a transcript as line-delimited JSON (one record per inning)."""
    if t.truncated_at == 0:
        raise ValueError("refusing to emit an empty transcript")
    try:
        with open(destination, "w") as fh:
            for record in transcript_records(t):
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    except OSError as e:
        raise OSError(f"cannot write transcript to {destination}: {e}")


def parse_transcript(path: str) -> list[dict]:
    """Re-parse an emitted transcript into its records (round trip partner of
    :func:`transcript_records`)."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _resolve_strategy(config: dict, space: SpaceModel, seed: int):
    name = config.get("strategy", "seg_tower")
    if isinstance(name, dict) and "seeded" in name:
        return seeded_strategy(space, int(name["seeded"]))
    corpus = strategy_corpus(space, n_random=0)
    if name in corpus:
        return corpus[name]
    raise ConfigError(f"unknown strategy {name!r}", key="strategy")


def run_scenario(config_path: str, output_dir: str | None = None, seed: int | None = None) -> int:
    """Execute a scenario; write transcript and report files; return 0 iff
    every verdict in the report passed."""
    config = load_config(config_path)
    out = output_dir or config.get("output", ".")
    os.makedirs(out, exist_ok=True)
    seed = seed if seed is not None else int(config.get("seed", 0))
    construction = config.get("construction")
    if construction is None:
        raise ConfigError("missing required key", key="construction")

    verdicts: list[dict] = []
    transcript: Transcript | None = None
    extra: dict[str, Any] = {}

    if construction == "oracle":
        verdicts, extra = _run_oracle(config)
    else:
        space = space_from_config(config)
        grid = config.get("grid", [{"horizon": 5, "innings": 5}])
        if construction == "hurewicz":
            transcript, verdicts = _run_hurewicz(config, space, grid, seed)
        elif construction == "paw-cor":
            transcript, verdicts, extra = _run_infinitely_often(config, space, grid, seed)
        elif construction == "rothberger":
            transcript, verdicts, extra = _run_rothberger(config, space, grid, seed)
        elif construction == "appendix":
            transcript, verdicts, extra = _run_appendix(config, space, grid, seed)
        else:
            raise ConfigError(f"unknown construction {construction!r}", key="construction")

    if transcript is not None:
        emit_transcript(transcript, os.path.join(out, "transcript.jsonl"))
    all_pass = all(v["pass"] for v in verdicts)
    report = {
        "construction": construction,
        "verdicts": verdicts,
        "all_pass": all_pass,
        **_jsonable(extra),
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0 if all_pass else 1


def _run_hurewicz(config, space, grid, seed):
    alice = _resolve_strategy(config, space, seed)
    verdicts = []
    transcript = None
    for cell in grid:
        horizon, innings = int(cell["horizon"]), int(cell["innings"])
        tree = normalize_strategy(alice, space, finite_win_horizon=horizon)
        result = bob_counterplay_menger(tree, raw=alice, innings=innings)
        transcript = result.transcript
        win = evaluate_win(result.transcript, horizon)
        legal = check_legal(result.transcript, alice)
        verdicts.append(
            {
                "check": f"win(h={horizon},n={innings})",
                "pass": win.bob_wins,
                "winner": win.winner,
            }
        )
        verdicts.append({"check": f"legal(h={horizon},n={innings})", "pass": bool(legal)})
    return transcript, verdicts


def _run_infinitely_often(config, space, grid, seed):
    alice = _resolve_strategy(config, space, seed)
    verdicts = []
    transcript = None
    mult_tables = {}
    for cell in grid:
        horizon, innings = int(cell["horizon"]), int(cell["innings"])
        need = int(cell.get("multiplicity", 2))
        transcript, report, _ = infinitely_often_play(alice, innings=innings, horizon=horizon)
        legal = check_legal(transcript, alice)
        verdicts.append(
            {
                "check": f"multiplicity>={need}(h={horizon},n={innings})",
                "pass": report.min_multiplicity() >= need,
                "min_multiplicity": report.min_multiplicity(),
            }
        )
        verdicts.append({"check": f"legal(h={horizon},n={innings})", "pass": bool(legal)})
        mult_tables[f"h{horizon}_n{innings}"] = {
            str(pid): list(v) for pid, v in report.covering_innings.items()
        }
    return transcript, verdicts, {"covering_innings": mult_tables}


def _run_rothberger(config, space, grid, seed):
    name = config.get("strategy", "seg_tower")
    corpus = rothberger_tree_corpus(space)
    if isinstance(name, str) and name in corpus:
        tree = corpus[name]
    else:
        raise ConfigError(f"unknown single-selection tree {name!r}", key="strategy")
    verdicts = []
    transcript = None
    audit = {}
    for cell in grid:
        horizon, innings = int(cell["horizon"]), int(cell["innings"])
        result = rothberger_counterplay(tree, select_sone, innings=innings, horizon=horizon)
        transcript = result.transcript
        win = evaluate_win(result.transcript, horizon)
        legal = check_legal(result.transcript, strategy_from_tree(tree))
        bounds_ok = all(
            rec.audit_dict()["pick"] <= rec.audit_dict()["bound"] for rec in result.transcript.innings
        )
        verdicts.append({"check": f"win(h={horizon},n={innings})", "pass": win.bob_wins})
        verdicts.append({"check": f"legal(h={horizon},n={innings})", "pass": bool(legal)})
        verdicts.append({"check": f"pick<=bound(h={horizon},n={innings})", "pass": bounds_ok})
        audit[f"h{horizon}_n{innings}"] = {"bounds": list(result.bounds), "picks": list(result.picked_path)}
    return transcript, verdicts, {"audit": audit}


def _run_appendix(config, space, grid, seed):
    name = config.get("strategy", "depth_shifted")
    corpus = appendix_tree_corpus(space)
    if name not in corpus:
        raise ConfigError(f"unknown large-cover tree {name!r}", key="strategy")
    tree = corpus[name]
    verdicts = []
    transcript = None
    extra = {}
    for cell in grid:
        innings = int(cell["innings"])
        sample_size = int(cell.get("sample", 5))
        need = int(cell.get("multiplicity", 2))
        node_budget = int(cell.get("node_budget", 12))
        sample = space.points(sample_size)
        result = counterplay_large(tree, sample, innings=innings, node_budget=node_budget)
        transcript = result.transcript
        verdicts.append(
            {
                "check": f"multiplicity>={need}(sample={sample_size},n={innings})",
                "pass": result.report.min_multiplicity() >= need,
                "min_multiplicity": result.report.min_multiplicity(),
            }
        )
        verdicts.append(
            {"check": f"distinct-selections(n={innings})", "pass": result.report.distinct_selections}
        )
        legal = check_legal(result.transcript, strategy_from_tree(tree))
        verdicts.append({"check": f"legal(n={innings})", "pass": bool(legal)})
        extra[f"n{innings}"] = {
            "evasion_prefix": list(result.evasion_prefix),
            "covering_innings": {str(k): list(v) for k, v in result.report.covering_innings.items()},
        }
    return transcript, verdicts, {"evasion": extra}


def _run_oracle(config):
    from .solver import stationary_instance

    spec = config.get("instance")
    if isinstance(spec, dict):
        # inline instance: a space plus a stationary list of cover options
        space = space_from_config(spec)
        if not isinstance(space, FiniteTopological):
            raise ConfigError("oracle instances need a finite space", key="instance")
        if "covers" not in spec:
            raise ConfigError("inline instance needs 'covers'", key="instance")
        instance = stationary_instance(space, spec["covers"], name=spec.get("name", "inline"))
        instance.validate()
    else:
        instances = bundled_instances()
        if spec not in instances:
            raise ConfigError(f"unknown instance {spec!r}", key="instance")
        instance = instances[spec]
    arity = config.get("game", "single")
    cap = int(config.get("cap", 1))
    if cap < 1:
        raise ConfigError("cap must be at least 1", key="cap")
    game = GameKind(arity, 1)
    depth = minimal_winning_depth(instance, game, cap)
    result = solve_finite_game(instance, game, depth, cap)
    expected = config.get("expect_depth")
    verdicts = [{"check": "solver-winner-bob", "pass": result.winner == "bob"}]
    if expected is not None:
        verdicts.append(
            {"check": f"minimal-depth=={expected}", "pass": depth == int(expected), "depth": depth}
        )
    return verdicts, {"minimal_depth": depth, "nodes": result.nodes}
