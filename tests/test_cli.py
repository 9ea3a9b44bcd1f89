"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_all_commands(self):
        p = build_parser()
        assert p.parse_args(["suite"]).command == "suite"
        assert p.parse_args(["frontier", "a/b/c"]).kernel == "a/b/c"
        args = p.parse_args(["train", "-o", "m.json", "--n-clusters", "3"])
        assert args.output == "m.json" and args.n_clusters == 3
        args = p.parse_args(["predict", "-m", "m.json", "a/b/c", "--cap", "20"])
        assert args.cap == 20.0
        assert p.parse_args(["evaluate"]).command == "evaluate"
        assert p.parse_args(["eval"]).command == "eval"
        assert p.parse_args(["telemetry", "t.json"]).path == "t.json"

    def test_parses_logging_flags(self):
        p = build_parser()
        args = p.parse_args(["--log-level", "debug", "--log-json", "-q", "suite"])
        assert args.log_level == "debug"
        assert args.log_json is True
        assert args.quiet is True


class TestSuiteCommand:
    def test_lists_kernels(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "65 benchmark/input kernels" in out
        assert "LULESH/Small/CalcFBHourglassForce" in out
        assert "LU Large" in out


class TestFrontierCommand:
    def test_prints_frontier(self, capsys):
        assert main(["frontier", "LU/Small/LUDecomposition"]) == 0
        out = capsys.readouterr().out
        assert "Frontier of LU/Small/LUDecomposition" in out
        assert "Normalized performance" in out

    def test_unknown_kernel_fails_cleanly(self, capsys):
        assert main(["frontier", "No/Such/Kernel"]) == 2
        assert "error" in capsys.readouterr().err


class TestTrainPredictRoundtrip:
    def test_train_then_predict(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        # Train on a small slice for speed: hold out everything but CoMD
        # by excluding nothing and trusting the full run? No - train on
        # all but LU (the prediction target's benchmark).
        rc = main(
            [
                "train",
                "-o",
                str(model_path),
                "--exclude-benchmark",
                "LU",
            ]
        )
        assert rc == 0
        assert model_path.exists()
        out = capsys.readouterr().out
        assert "Model saved" in out

        rc = main(
            [
                "predict",
                "-m",
                str(model_path),
                "LU/Small/LUDecomposition",
                "--cap",
                "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cluster" in out
        assert "At 20.0 W" in out
        assert "ground truth" in out

    def test_train_excluding_everything_fails(self, tmp_path, capsys):
        # An exclusion that empties the suite is rejected... no single
        # benchmark empties it, so simulate with a bogus name: that
        # excludes nothing and must succeed instead.
        model_path = tmp_path / "m.json"
        rc = main(
            ["train", "-o", str(model_path), "--n-clusters", "2",
             "--exclude-benchmark", "LULESH"]
        )
        assert rc == 0


class TestEvaluateCommand:
    def test_evaluate_without_baselines(self, capsys):
        assert main(["evaluate", "--no-freq-limiting"]) == 0
        out = capsys.readouterr().out
        assert "Model" in out and "Model+FL" in out
        assert "% Under" in out

    def test_eval_alias_with_telemetry_out(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        rc = main(
            ["eval", "--no-freq-limiting", "--telemetry-out", str(out_path)]
        )
        assert rc == 0
        assert "% Under" in capsys.readouterr().out
        data = json.loads(out_path.read_text())
        span_names = {n["name"] for n in data["spans"]}
        assert "loocv" in span_names
        counters = data["metrics"]["counters"]
        assert "cache.profile.misses" in counters
        assert "scheduler.selections" in counters

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        assert main(["evaluate", "--no-freq-limiting"]) == 0
        captured = capsys.readouterr()
        # stdout is machine-readable results only; progress events land
        # on stderr through the structured logger.
        assert "loocv-start" not in captured.out
        assert "loocv-start" in captured.err

    def test_quiet_silences_progress(self, capsys):
        assert main(["-q", "evaluate", "--no-freq-limiting"]) == 0
        captured = capsys.readouterr()
        assert "loocv-start" not in captured.err
        assert "% Under" in captured.out


class TestTelemetryCommand:
    def test_pretty_prints_saved_report(self, tmp_path, capsys):
        out_path = tmp_path / "telemetry.json"
        assert main(
            ["eval", "--no-freq-limiting", "--telemetry-out", str(out_path)]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry report" in out
        assert "loocv" in out
        assert "Counters:" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["telemetry", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_diff_compares_two_reports(self, tmp_path, capsys):
        import repro.telemetry as telemetry

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        telemetry.counter("cli.diff.c").inc(3)
        telemetry.write_telemetry(a)
        telemetry.counter("cli.diff.c").inc(4)
        telemetry.write_telemetry(b)
        assert main(["telemetry", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "Telemetry diff" in out
        assert "cli.diff.c" in out
        assert "3 -> 7" in out

    def test_path_and_diff_are_mutually_exclusive(self, tmp_path, capsys):
        assert main(["telemetry"]) == 2
        assert "error" in capsys.readouterr().err


class TestTopCommand:
    def test_renders_saved_monitor_dump(self, tmp_path, capsys):
        import repro.telemetry as telemetry
        from repro.telemetry.monitor import Monitor

        clock_t = [0.0]
        telemetry.counter("cli.top.c")
        mon = Monitor(clock=lambda: clock_t[0])
        try:
            for _ in range(3):
                telemetry.counter("cli.top.c").inc(10)
                clock_t[0] += 1.0
                mon.tick()
            dump_path = mon.write_dump(tmp_path / "mon.json")
        finally:
            mon.close()
        assert main(["top", "--dump", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "repro monitor" in out
        assert "cli.top.c" in out

    def test_scrape_unreachable_target_fails_cleanly(self, capsys):
        assert main(["top", "127.0.0.1:1"]) == 2
        assert "cannot scrape" in capsys.readouterr().err

    def test_cluster_demo_fires_and_clears_over_budget(self, capsys):
        assert main(["top", "--cluster", "--epochs", "6"]) == 0
        out = capsys.readouterr().out
        assert "cluster-over-budget" in out
        assert "fired=1, cleared=1" in out
        assert "budget compliance" in out

    def test_cluster_demo_rejects_short_runs(self, capsys):
        assert main(["top", "--cluster", "--epochs", "3"]) == 2
        assert "epochs" in capsys.readouterr().err


class TestRuntimeCommand:
    def test_runtime_prints_timeline(self, capsys):
        assert main(["runtime", "LU Small", "--cap", "20", "--timesteps", "4"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "t0" in out and "t3" in out
        assert "timesteps" in out  # the summary line

    def test_unknown_group_fails_cleanly(self, capsys):
        assert main(["runtime", "No Such Group"]) == 2
        assert "error" in capsys.readouterr().err


class TestAccuracyCommand:
    def test_accuracy_prints_summary(self, capsys):
        assert main(["accuracy"]) == 0
        out = capsys.readouterr().out
        assert "MAPE" in out and "rank tau" in out


class TestReportCommand:
    def test_report_writes_all_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "artifacts"
        assert main(["report", "-o", str(out_dir)]) == 0
        names = {p.name for p in out_dir.glob("*.txt")}
        assert names == {
            "fig2_table1.txt",
            "fig3.txt",
            "fig7.txt",
            "table3.txt",
            "fig4.txt",
            "fig5.txt",
            "fig6.txt",
            "fig8.txt",
            "fig9.txt",
        }
        table3 = (out_dir / "table3.txt").read_text()
        assert "% Under" in table3


class TestClusterCommand:
    def test_parses_cluster_args(self):
        p = build_parser()
        args = p.parse_args(
            ["cluster", "--policy", "maxmin", "--n-nodes", "64",
             "--epochs", "2", "--churn", "4", "--tree"]
        )
        assert args.command == "cluster"
        assert args.policy == "maxmin"
        assert args.n_nodes == 64 and args.epochs == 2 and args.churn == 4
        assert args.tree is True

    def test_prints_epoch_table(self, capsys):
        assert main(["-q", "cluster", "--n-nodes", "32", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "32 synthesized nodes" in out
        assert "epoch" in out and "alloc_ms" in out
        assert len(out.strip().splitlines()) == 4  # header + title + 2 epochs

    def test_tree_churn_and_telemetry_out(self, tmp_path, capsys):
        out_path = tmp_path / "cluster-telemetry.json"
        rc = main(
            ["-q", "cluster", "--n-nodes", "64", "--epochs", "2",
             "--churn", "4", "--tree", "--telemetry-out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hierarchical split" in out
        assert "4 nodes departed" in out
        data = json.loads(out_path.read_text())
        counters = data["metrics"]["counters"]
        assert counters.get("cluster.alloc.tree.calls", 0) >= 2
        assert counters.get("cluster.alloc.steps_taken", 0) > 0
        spans = {n["name"] for n in data["spans"]}
        assert "cluster/tree_allocate" in spans


class TestServeCommand:
    def test_parses_serve_args(self):
        p = build_parser()
        args = p.parse_args(
            ["serve", "--requests", "500", "--rate", "5000",
             "--max-batch", "64", "--max-delay-us", "100",
             "--telemetry-out", "t.json"]
        )
        assert args.command == "serve"
        assert args.requests == 500 and args.rate == 5000.0
        assert args.max_batch == 64 and args.max_delay_us == 100.0
        assert args.telemetry_out == "t.json"

    def test_serves_and_writes_telemetry(self, tmp_path, capsys):
        out_path = tmp_path / "server-telemetry.json"
        rc = main(
            ["-q", "serve", "--requests", "600", "--rate", "20000",
             "--telemetry-out", str(out_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "served 600 decisions" in out
        assert "latency p50" in out
        assert "batching:" in out
        data = json.loads(out_path.read_text())
        counters = data["metrics"]["counters"]
        assert counters["server.requests"] >= 600
        assert 0 < counters["server.batches"] < counters["server.requests"]
        spans = {n["name"] for n in data["spans"]}
        assert "server/batch" in spans and "server/warm" in spans

    def test_bad_arguments_fail_cleanly(self, capsys, monkeypatch):
        def must_not_build(**kwargs):
            raise AssertionError("bad flags must fail before training")

        monkeypatch.setattr(
            "repro.server.service.build_default_service", must_not_build
        )
        assert main(["-q", "serve", "--requests", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["-q", "serve", "--rate", "-5"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["-q", "serve", "--max-batch", "0"]) == 2
        assert "error: max_batch" in capsys.readouterr().err
        assert main(["-q", "serve", "--max-delay-us", "-1"]) == 2
        assert "error: max_delay_us" in capsys.readouterr().err


class TestSearchCommand:
    def test_parser_accepts_search_args(self):
        p = build_parser()
        args = p.parse_args(
            [
                "search",
                "--space",
                "paper",
                "--population",
                "32",
                "--generations",
                "10",
                "--epsilon",
                "0",
                "--baseline-budget",
                "500",
                "--n-jobs",
                "2",
            ]
        )
        assert args.command == "search"
        assert args.space == "paper"
        assert args.population == 32 and args.generations == 10
        assert args.epsilon == 0.0
        assert args.baseline_budget == 500
        assert args.n_jobs == 2
        assert p.parse_args(["search"]).space == "demo"

    def test_paper_space_search_validates_against_exact(self, capsys):
        assert (
            main(
                [
                    "-q",
                    "search",
                    "--space",
                    "paper",
                    "--population",
                    "48",
                    "--generations",
                    "25",
                    "--epsilon",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "space trinity: 144 points" in out
        assert "vs exact enumeration" in out
        assert "hypervolume ratio 1.0000" in out

    def test_demo_space_with_baseline_and_json(self, tmp_path, capsys):
        json_path = tmp_path / "search.json"
        telemetry_path = tmp_path / "telemetry.json"
        assert (
            main(
                [
                    "-q",
                    "search",
                    "--space",
                    "demo",
                    "--population",
                    "32",
                    "--generations",
                    "5",
                    "--baseline-budget",
                    "200",
                    "--json",
                    str(json_path),
                    "--telemetry-out",
                    str(telemetry_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "space bigiron-demo: 1179648 points" in out
        assert "random baseline: 200 evaluations" in out

        summary = json.loads(json_path.read_text())
        assert summary["space"] == "bigiron-demo"
        assert summary["evaluations"] == 32 * 6
        assert summary["baseline"]["evaluations"] == 200
        powers = [p["power_w"] for p in summary["frontier"]]
        assert powers == sorted(powers)

        telemetry_doc = json.loads(telemetry_path.read_text())
        metrics = telemetry_doc["metrics"]
        assert metrics["counters"]["search.evaluations"] >= 32 * 6 + 200
        assert "search.archive_size" in metrics["gauges"]
        span_names = {s["name"] for s in telemetry_doc["spans"]}
        assert "search/run" in span_names

    def test_unknown_kernel_fails_cleanly(self, capsys):
        assert main(["-q", "search", "--kernel", "no/such/kernel"]) != 0
