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
    instance      (oracle) bundled instance name, or inline
                  {"space": {...}, "covers": [...], "name": s}
    game          (oracle) "single" | "finite"; cap: selection cap;
                  expect_depth
    output        default output directory

Every construction is deterministic, so a config needs no seed. Grid
constructions are rows of `CONSTRUCTIONS`, run by one grid loop. A malformed
value raises :class:`ConfigError` naming its key; integer values must be JSON
integers. A key the config's construction does not read, at the top level,
in a grid cell, in `space` or in an inline instance, raises `ConfigError`
naming it, so a misspelt key never silently takes its default.

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
from .solver import minimal_winning_depth, solve_finite_game, stationary_instance
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
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "countable":
        _known(spec, {"kind"}, "space")
        return CountableDiscrete()
    if kind == "finite":
        _known(spec, {"kind", "points", "topology"}, "space")
        points, topology = spec.get("points"), spec.get("topology")
        if not _is_int(points) or not _list_of(topology, lambda s: _list_of(s, _is_int)):
            raise ConfigError("finite space needs integer 'points' and 'topology' as lists of ids", key="space")
        try:
            return FiniteTopological(points, topology)
        except ValueError as e:
            raise ConfigError(f"invalid finite space: {e}", key="space")
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


def run_scenario(config_path: str, output_dir: str | None = None) -> int:
    """Execute a scenario; write transcript and report files; return 0 iff
    every verdict in the report passed."""
    config = load_config(config_path)
    out = config.get("output", ".")
    if not isinstance(out, str):
        raise ConfigError(f"output must be a string, got {out!r}", key="output")
    out = output_dir or out
    os.makedirs(out, exist_ok=True)
    construction = config.get("construction")
    if construction is None:
        raise ConfigError("missing required key", key="construction")

    transcript: Transcript | None = None
    if construction == "oracle":
        _known(config, ORACLE_KEYS, "the config")
        verdicts, extra = _run_oracle(config)
    elif isinstance(construction, str) and construction in CONSTRUCTIONS:
        _known(config, GRID_KEYS, "the config")
        transcript, verdicts, extra = _run_grid(construction, config, space_from_config(config))
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


def _is_int(value: Any) -> bool:
    """A JSON integer: not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(value: Any, test) -> bool:
    """A JSON list whose items all pass `test`."""
    return isinstance(value, list) and all(map(test, value))


def _known(mapping: dict, keys: set[str], where: str) -> None:
    """Refuse the first key of `mapping` outside `keys`, naming it."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}", key=key)


def _int(mapping: dict, key: str, default: int | None = None) -> int:
    """An integer config value; a missing key without a default, or a value
    that is not a JSON integer, raises ConfigError naming the key."""
    if key not in mapping:
        if default is None:
            raise ConfigError("missing required key", key=key)
        return default
    if not _is_int(mapping[key]):
        raise ConfigError(f"{key} must be an integer, got {mapping[key]!r}", key=key)
    return mapping[key]


def _positive(mapping: dict, key: str, default: int | None = None) -> int:
    """An integer config value of at least 1, as `_int` reads it; a smaller
    one raises ConfigError naming the key."""
    value = _int(mapping, key, default)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}", key=key)
    return value


def _named(corpus: dict, name: Any, what: str):
    if isinstance(name, str) and name in corpus:
        return corpus[name]
    raise ConfigError(f"unknown {what} {name!r}", key="strategy")


def _corpus_strategy(config: dict, space: SpaceModel):
    name = config.get("strategy", "seg_tower")
    if isinstance(name, dict) and "seeded" in name:
        return seeded_strategy(space, _int(name, "seeded"))
    return _named(strategy_corpus(space, n_random=0), name, "strategy")


def _tree_corpus(corpus, default: str, what: str):
    return lambda config, space: _named(corpus(space), config.get("strategy", default), what)


_rothberger_tree = _tree_corpus(rothberger_tree_corpus, "seg_tower", "single-selection tree")
_appendix_tree = _tree_corpus(appendix_tree_corpus, "depth_shifted", "large-cover tree")


# Each grid cell's play returns (transcript, verdicts, cell key, cell table).


def _multiplicity_verdict(check: str, report, need: int) -> dict:
    least = report.min_multiplicity()
    return {"check": check, "pass": least >= need, "min_multiplicity": least}


def _play_hurewicz(alice, space, cell):
    horizon, innings = _positive(cell, "horizon"), _positive(cell, "innings")
    tree = normalize_strategy(alice, space, finite_win_horizon=horizon)
    transcript = bob_counterplay_menger(tree, raw=alice, innings=innings).transcript
    win = evaluate_win(transcript, horizon)
    verdicts = [
        {"check": f"win(h={horizon},n={innings})", "pass": win.bob_wins, "winner": win.winner},
        {"check": f"legal(h={horizon},n={innings})", "pass": bool(check_legal(transcript, alice))},
    ]
    return transcript, verdicts, None, None


def _play_often(alice, space, cell):
    horizon, innings, need = _positive(cell, "horizon"), _positive(cell, "innings"), _positive(cell, "multiplicity", 2)
    transcript, report, _ = infinitely_often_play(alice, innings=innings, horizon=horizon)
    verdicts = [
        _multiplicity_verdict(f"multiplicity>={need}(h={horizon},n={innings})", report, need),
        {"check": f"legal(h={horizon},n={innings})", "pass": bool(check_legal(transcript, alice))},
    ]
    table = {str(pid): list(v) for pid, v in report.covering_innings.items()}
    return transcript, verdicts, f"h{horizon}_n{innings}", table


def _play_rothberger(tree, space, cell):
    horizon, innings = _positive(cell, "horizon"), _positive(cell, "innings")
    result = rothberger_counterplay(tree, select_sone, innings=innings, horizon=horizon)
    win = evaluate_win(result.transcript, horizon)
    legal = check_legal(result.transcript, strategy_from_tree(tree))
    bounds_ok = all(rec.audit_dict()["pick"] <= rec.audit_dict()["bound"] for rec in result.transcript.innings)
    verdicts = [
        {"check": f"win(h={horizon},n={innings})", "pass": win.bob_wins},
        {"check": f"legal(h={horizon},n={innings})", "pass": bool(legal)},
        {"check": f"pick<=bound(h={horizon},n={innings})", "pass": bounds_ok},
    ]
    table = {"bounds": list(result.bounds), "picks": list(result.picked_path)}
    return result.transcript, verdicts, f"h{horizon}_n{innings}", table


def _play_appendix(tree, space, cell):
    innings, sample_size = _positive(cell, "innings"), _positive(cell, "sample", 5)
    need, node_budget = _positive(cell, "multiplicity", 2), _positive(cell, "node_budget", 12)
    result = counterplay_large(tree, space.points(sample_size), innings=innings, node_budget=node_budget)
    legal = check_legal(result.transcript, strategy_from_tree(tree))
    verdicts = [
        _multiplicity_verdict(f"multiplicity>={need}(sample={sample_size},n={innings})", result.report, need),
        {"check": f"distinct-selections(n={innings})", "pass": result.report.distinct_selections},
        {"check": f"legal(n={innings})", "pass": bool(legal)},
    ]
    table = {
        "evasion_prefix": list(result.evasion_prefix),
        "covering_innings": {str(k): list(v) for k, v in result.report.covering_innings.items()},
    }
    return result.transcript, verdicts, f"n{innings}", table


# Each construction: its strategy resolver, one grid cell's play, the report
# key collecting the per-cell tables (None: no tables), and the keys a grid
# cell may hold.
CONSTRUCTIONS = {
    "hurewicz": (_corpus_strategy, _play_hurewicz, None, {"horizon", "innings"}),
    "paw-cor": (_corpus_strategy, _play_often, "covering_innings", {"horizon", "innings", "multiplicity"}),
    "rothberger": (_rothberger_tree, _play_rothberger, "audit", {"horizon", "innings"}),
    "appendix": (_appendix_tree, _play_appendix, "evasion", {"innings", "sample", "multiplicity", "node_budget"}),
}
GRID_KEYS = {"space", "construction", "strategy", "grid", "output"}
ORACLE_KEYS = {"construction", "instance", "game", "cap", "expect_depth", "output"}


def _run_grid(name: str, config: dict, space: SpaceModel):
    """Play every grid cell in order: the verdicts of all cells, the last
    cell's transcript, and the per-cell tables under the report key."""
    resolve, play, report_key, cell_keys = CONSTRUCTIONS[name]
    strategy = resolve(config, space)
    grid = config.get("grid", [{"horizon": 5, "innings": 5}])
    if not isinstance(grid, list) or not grid or not all(isinstance(cell, dict) for cell in grid):
        raise ConfigError("grid must be a nonempty list of objects", key="grid")
    for cell in grid:
        _known(cell, cell_keys, "a grid cell")
    transcript, verdicts, tables = None, [], {}
    for cell in grid:
        transcript, cell_verdicts, cell_key, table = play(strategy, space, cell)
        verdicts.extend(cell_verdicts)
        tables[cell_key] = table
    return transcript, verdicts, {report_key: tables} if report_key else {}


def _run_oracle(config):
    spec = config.get("instance")
    if isinstance(spec, dict):
        # inline instance: a space plus a stationary list of cover options
        _known(spec, {"space", "covers", "name"}, "instance")
        space = space_from_config(spec)
        if not isinstance(space, FiniteTopological):
            raise ConfigError("oracle instances need a finite space", key="instance")
        covers, name = spec.get("covers"), spec.get("name", "inline")
        if not (_list_of(covers, lambda cover: _list_of(cover, lambda s: _list_of(s, _is_int))) and isinstance(name, str)):
            raise ConfigError("inline instance needs 'covers' as lists of lists of ids and a string 'name'", key="instance")
        instance = stationary_instance(space, covers, name=name)
        try:
            instance.validate()
        except ValueError as e:
            raise ConfigError(f"invalid instance: {e}", key="instance")
    else:
        instances = bundled_instances()
        if spec not in instances:
            raise ConfigError(f"unknown instance {spec!r}", key="instance")
        instance = instances[spec]
    arity = config.get("game", "single")
    if arity not in ("finite", "single"):
        raise ConfigError(f"game must be 'finite' or 'single', got {arity!r}", key="game")
    cap = _positive(config, "cap", 1)
    game = GameKind(arity, 1)
    depth = minimal_winning_depth(instance, game, cap)
    result = solve_finite_game(instance, game, depth, cap)
    expected = config.get("expect_depth")
    verdicts = [{"check": "solver-winner-bob", "pass": result.winner == "bob"}]
    if expected is not None:
        verdicts.append(
            {"check": f"minimal-depth=={expected}", "pass": depth == _int(config, "expect_depth"), "depth": depth}
        )
    return verdicts, {"minimal_depth": depth, "nodes": result.nodes}
