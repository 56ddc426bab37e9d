"""CLI tests: listing, running experiments, saving results."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import clear_setup_cache


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.scale == "small"
        assert args.seed == 0
        assert args.experiment == "table1"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestExecution:
    def test_list_prints_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "table2" in out
        assert "ablation-unit-cost" in out

    def test_run_table1_tiny(self, capsys, tmp_path):
        code = main(
            ["run", "table1", "--scale", "tiny", "--save-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        saved = json.loads((tmp_path / "table1.json").read_text())
        assert saved["experiment_id"] == "table1"

    def test_run_fig12_tiny_saves_json(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "fig12",
                "--scale",
                "tiny",
                "--dataset",
                "twitter",
                "--save-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Viable query percentage" in out
        assert (tmp_path / "fig12_13-twitter.json").exists()

    def test_no_save_flag(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "table1",
                "--scale",
                "tiny",
                "--save-dir",
                str(tmp_path),
                "--no-save",
            ]
        )
        assert code == 0
        assert not list(tmp_path.iterdir())


class TestTrainCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.command == "train"
        assert args.dataset == "twitter"
        assert args.candidates == 1
        assert args.lockstep is False

    def test_invalid_candidates_rejected(self, capsys):
        assert main(["train", "--candidates", "0", "--no-save"]) == 2
        assert "--candidates" in capsys.readouterr().err

    def test_invalid_tau_rejected(self, capsys):
        assert main(["train", "--tau-ms", "-5", "--no-save"]) == 2
        assert "--tau-ms" in capsys.readouterr().err

    def test_train_tiny_prints_curve_and_saves(self, capsys, tmp_path):
        code = main(
            [
                "train",
                "--scale",
                "tiny",
                "--max-epochs",
                "3",
                "--save-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total reward" in out
        assert "epochs/s" in out
        saved = json.loads((tmp_path / "training_report.json").read_text())
        assert saved["epochs_run"] >= 1
        assert len(saved["epoch_rewards"]) == saved["epochs_run"]
        assert saved["lockstep"] is False

    def test_train_lockstep_candidates(self, capsys, tmp_path):
        code = main(
            [
                "train",
                "--scale",
                "tiny",
                "--max-epochs",
                "2",
                "--lockstep",
                "--candidates",
                "2",
                "--save-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lockstep waves" in out
        assert "2 candidates" in out
        saved = json.loads((tmp_path / "training_report.json").read_text())
        assert saved["n_candidates"] == 2
        assert saved["lockstep"] is True


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 1
        assert args.routers == 1
        assert args.inline is False

    def test_invalid_shards_rejected(self, capsys):
        assert main(["serve", "--shards", "0", "--no-save"]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_sharded_tiny(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--scale",
                "tiny",
                "--sessions",
                "3",
                "--steps",
                "3",
                "--shards",
                "2",
                "--inline",
                "--save-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shard workers" in out
        assert "shard router:" in out
        assert "  match " in out and " entries" in out
        saved = json.loads((tmp_path / "serving_report.json").read_text())
        assert saved["warm"]["shards"]["n_shards"] == 2
        assert saved["warm"]["shards"]["n_scattered"] >= 1

    def test_serve_replicated_tiny(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--scale",
                "tiny",
                "--sessions",
                "3",
                "--steps",
                "3",
                "--routers",
                "2",
                "--inline",
                "--save-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 replicated routers" in out
        # The fleet summary is dispatch, syncs and the journal — no line
        # about decisions shared between replicas.
        lines = out.splitlines()
        start = lines.index(
            "router fleet:          2 replicas, 9 dispatched / 0 local, "
            "0 syncs, journal high-water 9"
        )
        per_router = lines[start + 1 : start + 3]
        assert [line[:10] for line in per_router] == ["  router 0", "  router 1"]
        assert all(line.endswith(" decision-cached") for line in per_router)
        saved = json.loads((tmp_path / "serving_report.json").read_text())
        routers = saved["warm"]["routers"]
        assert routers["n_routers"] == 2
        assert routers["n_dispatched"] == 9
        assert routers["n_local"] == 0
        assert routers["n_router_deaths"] == 0
        assert sum(w["n_requests"] for w in routers["per_router"].values()) == 9
        # The warm pass repeats the cold pass, so every replica's cache hits.
        assert sum(w["n_cached"] for w in routers["per_router"].values()) == 9

    def test_serve_async_tiny(self, capsys, tmp_path):
        def serve(*extra):
            # A fresh setup each time: the cached one carries the engine
            # profile's RNG state on from the previous run in this process.
            clear_setup_cache()
            save_dir = tmp_path / ("async" if extra else "sync")
            argv = ["serve", "--scale", "tiny", "--sessions", "3", "--steps", "3"]
            argv += ["--batch-size", "4", *extra, "--save-dir", str(save_dir)]
            assert main(argv) == 0
            saved = json.loads((save_dir / "serving_report.json").read_text())
            return capsys.readouterr().out, saved["warm"]

        async_out, async_warm = serve("--async")
        _, sync_warm = serve()
        assert "async micro-batches of 4" in async_out
        assert "async overlap" not in async_out
        for key in ("n_requests", "n_viable", "decision_cache_hits"):
            assert async_warm[key] == sync_warm[key]
