import hashlib
import json
import os

import pytest

from selectiongames.engine import MENGER_GAME, Transcript
from selectiongames.errors import ConfigError
from selectiongames.scenarios import (
    emit_transcript,
    load_config,
    parse_transcript,
    run_scenario,
    transcript_records,
)


def write_config(tmp_path, config, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def scenario_config(**overrides):
    config = {
        "space": {"kind": "countable"},
        "construction": "hurewicz",
        "strategy": "seg_tower",
        "grid": [{"horizon": 6, "innings": 6}],
    }
    config.update(overrides)
    return config


def inline_instance(**instance):
    """An oracle config on an inline instance over the two-point discrete space."""
    space = {"kind": "finite", "points": 2, "topology": [[], [0], [1], [0, 1]]}
    return {"construction": "oracle", "instance": {"space": space, **instance}}


# covers that are not lists of lists of ids, that name no cover of the
# space, or that offer no option at all
MALFORMED_COVERS = ([[1]], 5, [[[0, 1]], 7], [[["a"]]], [[[0, 9]]], [])


class TestConfigErrors:
    def test_missing_space_key(self, tmp_path):
        cfg = scenario_config()
        del cfg["space"]
        with pytest.raises(ConfigError) as exc:
            run_scenario(write_config(tmp_path, cfg), output_dir=str(tmp_path / "out"))
        assert exc.value.key == "space"

    def test_missing_construction(self, tmp_path):
        cfg = scenario_config()
        del cfg["construction"]
        with pytest.raises(ConfigError):
            run_scenario(write_config(tmp_path, cfg), output_dir=str(tmp_path / "out"))

    def test_unknown_strategy(self, tmp_path):
        cfg = scenario_config(strategy="nope")
        with pytest.raises(ConfigError):
            run_scenario(write_config(tmp_path, cfg), output_dir=str(tmp_path / "out"))

    def test_oracle_cap_below_one(self, tmp_path):
        cfg = {"construction": "oracle", "instance": "two_point_singletons", "game": "finite", "cap": 0}
        with pytest.raises(ConfigError) as exc:
            run_scenario(write_config(tmp_path, cfg), output_dir=str(tmp_path / "out"))
        assert exc.value.key == "cap"

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"construction": "oracle", "instance": "two_point_singletons", "cap": "two"}, "cap"),
            ({"construction": "oracle", "instance": "two_point_singletons", "game": "several"}, "game"),
            (scenario_config(grid=[{"innings": 4}]), "horizon"),
            (scenario_config(grid={"horizon": 4, "innings": 4}), "grid"),
            (scenario_config(space="countable"), "space"),
            (scenario_config(space={"kind": "finite", "points": 2, "topology": [[0]]}), "space"),
            (scenario_config(space={"kind": "finite", "points": "two", "topology": [[], [0, 1]]}), "space"),
            (
                {"construction": "oracle", "instance": {"space": {"kind": "finite", "points": 1, "topology": [[0]]}}},
                "space",
            ),
            (scenario_config(grid=[{"horizon": 4.7, "innings": 4}]), "horizon"),
            (scenario_config(grid=[{"horizon": True, "innings": 4}]), "horizon"),
            (scenario_config(grid=[]), "grid"),
            (scenario_config(grid=[{"horizon": 4, "innings": 0}]), "innings"),
            (scenario_config(grid=[{"horizon": 4, "innings": -1}]), "innings"),
            (scenario_config(construction="appendix", strategy="depth_shifted", grid=[{"innings": 4, "sample": 0}]), "sample"),
            (
                scenario_config(construction="appendix", strategy="depth_shifted", grid=[{"innings": 4, "node_budget": 0}]),
                "node_budget",
            ),
            (scenario_config(grid=[{"horizon": 0, "innings": 4}]), "horizon"),
            (scenario_config(construction="paw-cor", grid=[{"horizon": 3, "innings": 8, "multiplicity": 0}]), "multiplicity"),
            (scenario_config(output=5), "output"),
            *((inline_instance(covers=covers), "instance") for covers in MALFORMED_COVERS),
            (inline_instance(covers=[[[0, 1]]], name=3), "instance"),
        ],
        ids=[
            "cap-not-an-integer", "unknown-game", "cell-without-horizon", "grid-not-a-list", "space-not-an-object",
            "topology-without-the-whole-space", "points-not-an-integer", "inline-topology-without-the-empty-set",
            "horizon-not-integral", "horizon-a-bool", "grid-empty", "innings-zero", "innings-negative", "sample-zero",
            "node-budget-zero",
            "horizon-zero", "multiplicity-zero", "output-not-a-string",
            *(f"inline-covers-{covers!r}" for covers in MALFORMED_COVERS), "inline-name-not-a-string",
        ],
    )
    def test_malformed_values_name_their_key(self, tmp_path, config, key):
        with pytest.raises(ConfigError) as exc:
            run_scenario(write_config(tmp_path, config), output_dir=str(tmp_path / "out"))
        assert exc.value.key == key
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            (scenario_config(construction="paw-cor", grid=[{"horizon": 3, "innings": 8, "multiplicty": 5}]), "multiplicty"),
            (scenario_config(construction="paw-cor", grid=[{"horizon": 3, "innings": 8}], sede=3), "sede"),
            (scenario_config(seed=11), "seed"),
            (scenario_config(grid=[{"horizon": 3, "innings": 3}, {"horizon": 4, "innings": 4, "sample": 2}]), "sample"),
            (scenario_config(construction="appendix", strategy="depth_shifted", grid=[{"innings": 4, "horizon": 4}]), "horizon"),
            (scenario_config(cap=2), "cap"),
            (scenario_config(space={"kind": "countable", "points": 3}), "points"),
            (scenario_config(space={"kind": "finite", "points": 1, "topology": [[], [0]], "opens": []}), "opens"),
            ({"construction": "oracle", "instance": "two_point_singletons", "grid": []}, "grid"),
            (
                {
                    "construction": "oracle",
                    "instance": {
                        "space": {"kind": "finite", "points": 1, "topology": [[], [0]]},
                        "covers": [[[0]]],
                        "label": "one",
                    },
                },
                "label",
            ),
        ],
        ids=[
            "misspelt-cell-key", "misspelt-top-level-key", "removed-seed-key", "key-of-another-construction",
            "appendix-cell-horizon", "oracle-key-in-a-grid-config", "countable-space-points", "finite-space-key",
            "grid-key-in-an-oracle-config", "inline-instance-key",
        ],
    )
    def test_unknown_keys_name_themselves(self, tmp_path, config, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as exc:
            run_scenario(write_config(tmp_path, config), output_dir=str(tmp_path / "out"))
        assert exc.value.key == key
        assert not (tmp_path / "out" / "report.json").exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestRunScenario:
    def test_hurewicz_scenario_passes(self, tmp_path):
        cfg = scenario_config(grid=[{"horizon": 10, "innings": 10}])
        out = str(tmp_path / "out")
        assert run_scenario(write_config(tmp_path, cfg), output_dir=out) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["all_pass"]
        lines = (tmp_path / "out" / "transcript.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert len(lines) == 1 + 10

    def test_oracle_scenario_two_point_single_depth(self, tmp_path):
        cfg = {
            "construction": "oracle",
            "instance": "two_point_singletons",
            "game": "single",
            "cap": 1,
            "expect_depth": 2,
        }
        out = str(tmp_path / "out")
        assert run_scenario(write_config(tmp_path, cfg), output_dir=out) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["minimal_depth"] == 2

    def test_oracle_finite_cap_two_depth_one(self, tmp_path):
        cfg = {
            "construction": "oracle",
            "instance": "two_point_singletons",
            "game": "finite",
            "cap": 2,
            "expect_depth": 1,
        }
        assert run_scenario(write_config(tmp_path, cfg), output_dir=str(tmp_path / "o")) == 0

    def test_oracle_inline_instance_from_config(self, tmp_path):
        cfg = {
            "construction": "oracle",
            "instance": {
                "space": {"kind": "finite", "points": 2, "topology": [[], [0], [1], [0, 1]]},
                "covers": [[[0], [1]]],
                "name": "inline_two",
            },
            "game": "single",
            "cap": 1,
            "expect_depth": 2,
        }
        out = str(tmp_path / "inline")
        assert run_scenario(write_config(tmp_path, cfg), output_dir=out) == 0
        report = json.loads((tmp_path / "inline" / "report.json").read_text())
        assert report["minimal_depth"] == 2

    def test_all_constructions_run(self, tmp_path):
        configs = [
            scenario_config(),
            scenario_config(construction="paw-cor", grid=[{"horizon": 4, "innings": 15, "multiplicity": 2}]),
            scenario_config(construction="rothberger", grid=[{"horizon": 4, "innings": 10}]),
            scenario_config(
                construction="appendix",
                strategy="depth_shifted",
                grid=[{"innings": 10, "sample": 4, "multiplicity": 2}],
            ),
        ]
        for k, cfg in enumerate(configs):
            out = str(tmp_path / f"out{k}")
            assert run_scenario(write_config(tmp_path, cfg, name=f"c{k}.json"), output_dir=out) == 0

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = scenario_config(construction="paw-cor", grid=[{"horizon": 4, "innings": 12}])
        path = write_config(tmp_path, cfg)
        run_scenario(path, output_dir=str(tmp_path / "a"))
        run_scenario(path, output_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "transcript.jsonl").read_bytes()
        b = (tmp_path / "b" / "transcript.jsonl").read_bytes()
        assert a == b


class TestTranscriptSerialization:
    def test_round_trip(self, tmp_path):
        from selectiongames.corpus import named_strategies
        from selectiongames.hurewicz import bob_counterplay_menger, normalize_strategy
        from selectiongames.spaces import CountableDiscrete

        N = CountableDiscrete()
        alice = named_strategies(N)["seg_tower"]
        tree = normalize_strategy(alice, N)
        t = bob_counterplay_menger(tree, raw=alice, innings=4).transcript
        dest = str(tmp_path / "t.jsonl")
        emit_transcript(t, dest)
        parsed = parse_transcript(dest)
        assert parsed == json.loads(json.dumps(transcript_records(t)))

    def test_empty_transcript_rejected(self, tmp_path):
        t = Transcript(game=MENGER_GAME, innings=())
        with pytest.raises(ValueError):
            emit_transcript(t, str(tmp_path / "x.jsonl"))

    def test_io_error_reports_path(self):
        from selectiongames.corpus import named_strategies
        from selectiongames.hurewicz import bob_counterplay_menger, normalize_strategy
        from selectiongames.spaces import CountableDiscrete

        N = CountableDiscrete()
        alice = named_strategies(N)["seg_tower"]
        t = bob_counterplay_menger(normalize_strategy(alice, N), raw=alice, innings=2).transcript
        with pytest.raises(OSError, match="/nonexistent"):
            emit_transcript(t, "/nonexistent/dir/t.jsonl")


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs")

# SHA-256 of (transcript.jsonl, report.json) for each bundled config; the
# oracle scenario writes no transcript. Same seed, same bytes: a change that
# moves any of these changes what the library emits.
PINNED_DIGESTS = {
    "appendix_depth.json": (
        "aef5051d0593194d99e7e8e41892e270b06249947384f3f4b4bfaad8df09acbc",
        "7a9eaae263189dd8bf81d52779807d9ad8fe90c060642b2920338f0035c3a608",
    ),
    "hurewicz_segments.json": (
        "208121df98595828b2081de1aea82f2bf04d5f9cb65b115c41c05098bbd9b7a1",
        "c30f2fa8cf89fa827bf0a0f879e5c91a08edd159175d7ab6144f3c12b66c4cc1",
    ),
    "often_seeded.json": (
        "39bb0130c842b02538bd1ef104e9fd2c0692f6fa29b4bfd84c0cc12ddce4d128",
        "fc8708c37b5524d4d6c424ddb8938c31eebd5d245feee22b9798167272a0fb23",
    ),
    "oracle_two_point.json": (
        None,
        "1193d69123d5206f110237e7f80081a8b67c42121fbdc0c079b16382081f40cd",
    ),
    "rothberger_shifted.json": (
        "0ba260756a9877fc358728f16e381c255cc97476aad93ddaa23610ec7c5313b8",
        "6266061154799e5d25c93b2b4991fd19e766b0fb7883c4c618f58573fb291323",
    ),
}


def _digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_every_bundled_config_is_pinned():
    assert sorted(os.listdir(CONFIGS)) == sorted(PINNED_DIGESTS)


@pytest.mark.parametrize("config_name", sorted(PINNED_DIGESTS))
def test_bundled_scenarios_emit_pinned_bytes(config_name, tmp_path):
    assert run_scenario(os.path.join(CONFIGS, config_name), output_dir=str(tmp_path)) == 0
    got = (_digest(str(tmp_path / "transcript.jsonl")), _digest(str(tmp_path / "report.json")))
    assert got == PINNED_DIGESTS[config_name]


# Two-cell grids (and one config with no grid at all): verdict order across
# cells, the per-cell report tables, the last cell's transcript and the
# default grid, pinned as (exit status, transcript digest, report digest).
MULTI_CELL = {
    "hurewicz": (
        scenario_config(strategy="shifted_seg", grid=[{"horizon": 4, "innings": 4}, {"horizon": 6, "innings": 5}]),
        (
            1,
            "8c40ad9babf5c2388e86d4ccccbd9de79123d15afb505e38c8f64d71d5fc0844",
            "c2a957112a66e88537daa5d588b200055487452415438b90b922ebf18bf1a49b",
        ),
    ),
    "paw-cor": (
        scenario_config(
            construction="paw-cor",
            strategy="mixed_adversarial",
            grid=[{"horizon": 3, "innings": 8, "multiplicity": 2}, {"horizon": 4, "innings": 10}],
        ),
        (
            0,
            "5133ccb6f7963ea5005015935d913aa5bb16d7b41dca54918db611d5d2eaffe1",
            "5cd18e8d2b907fc64b0e9a21ae17e67de06d882141248770b96ca860b10c84a3",
        ),
    ),
    "rothberger": (
        scenario_config(construction="rothberger", grid=[{"horizon": 3, "innings": 6}, {"horizon": 4, "innings": 8}]),
        (
            0,
            "98715ae6575ea9301536c07b8b0bff04395c806d757c536485f8afc05d07a517",
            "0e076cdc234978f950e94ef36371c4c4136c87bce1ad3a82468310445ca469fd",
        ),
    ),
    "appendix": (
        scenario_config(
            construction="appendix",
            strategy="depth_shifted",
            grid=[{"innings": 8, "sample": 3}, {"innings": 12, "sample": 4, "multiplicity": 3, "node_budget": 6}],
        ),
        (
            0,
            "d97d33b4a172a6f6f5439ff219ee2beefee507e14160c8832ac8b842f0d1e8d1",
            "8a7ebc1ddfcf302f929d79d29e15fb35a7dfc85304373aba69b4b20d61446dfc",
        ),
    ),
    "default-grid": (
        {"space": {"kind": "countable"}, "construction": "rothberger"},
        (
            0,
            "88b6cdb93de93bdb879828d27bc657fa347f8b45baecc3b99c542e53ab23449f",
            "ce908b1620eace7d7bc295e6a60eb32a0b0f2d9884295d18ee007b6cf776d9de",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(MULTI_CELL))
def test_multi_cell_scenarios_emit_pinned_bytes(name, tmp_path):
    config, pinned = MULTI_CELL[name]
    status = run_scenario(write_config(tmp_path, config), output_dir=str(tmp_path / "out"))
    got = (status, _digest(str(tmp_path / "out" / "transcript.jsonl")), _digest(str(tmp_path / "out" / "report.json")))
    assert got == pinned
