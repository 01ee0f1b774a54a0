"""Experiment runner: network construction, seeding, reports, CLI."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import symnet
from symnet.ndcore import SeededRng, derive_seed
from symnet.tasks import make_identity_dataset, make_rule_dataset
from symnet.training import TrainConfig
from symnet.harness import (
    ExperimentSpec,
    build_network,
    execute_run,
    main,
    parse_cli,
    render_csv,
    render_json,
    render_markdown,
    resolved_train_config,
    run_experiment,
    write_report,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
RUN_HEADER = "experiment,architecture,run_index,seed,restarts,train_accuracy,test_accuracy,final_loss"


def small_spec(**overrides):
    defaults = dict(experiment="identity", architectures=("conv",), runs=3)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestBuildNetwork:
    def test_identity_networks_map_5_to_5(self):
        ds = make_identity_dataset()
        for arch in ("dense", "conv"):
            net = build_network("identity", arch, SeededRng(1))
            out = net.predict(ds.train.inputs[3])
            assert out.shape == (5,)
            assert np.all((out > 0) & (out < 1))  # sigmoid output stage

    def test_rule_networks_emit_class_distribution(self):
        ds = make_rule_dataset()
        for arch in ("dense", "conv"):
            net = build_network("rule", arch, SeededRng(1))
            out = net.predict(ds.train.inputs[0])
            assert out.shape == (2,)
            assert float(np.sum(out)) == pytest.approx(1.0, abs=1e-12)

    def test_filter_width_knob_changes_identity_conv_only(self):
        assert build_network("identity", "conv", SeededRng(0), filter_width=1).parameter_count() == 2
        assert build_network("identity", "conv", SeededRng(0), filter_width=3).parameter_count() == 4
        assert build_network("rule", "conv", SeededRng(0), filter_width=3).parameter_count() == 8

    def test_rule_dense_hidden_width(self):
        net = build_network("rule", "dense", SeededRng(0))
        dense = net.parametric_stages[0]
        assert dense.weights.shape == (24, 36)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            build_network("identity", "transformer", SeededRng(0))
        with pytest.raises(ValueError):
            build_network("parity", "conv", SeededRng(0))

    def test_same_rng_same_parameters(self):
        a = build_network("rule", "conv", SeededRng(55))
        b = build_network("rule", "conv", SeededRng(55))
        assert np.array_equal(a.parametric_stages[0].filters, b.parametric_stages[0].filters)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="parity")
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="identity", architectures=())
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="identity", architectures=("rnn",))
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="identity", runs=0)
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="identity", filter_width=2)

    def test_experiment_defaults(self):
        identity = resolved_train_config(ExperimentSpec(experiment="identity"))
        assert identity.learning_rate == 1.0
        assert identity.max_restarts == 0
        rule = resolved_train_config(ExperimentSpec(experiment="rule"))
        assert rule.learning_rate == 0.1
        assert rule.max_restarts == 50

    def test_identity_max_restarts_is_honoured(self):
        spec = ExperimentSpec(experiment="identity", train=TrainConfig(max_restarts=50))
        assert resolved_train_config(spec).max_restarts == 50
        assert parse_cli(["--experiment", "identity", "--max-restarts", "3"])[0].train.max_restarts == 3
        # an unlearnable step size uses up the whole budget, so every restart shows in the row
        row = execute_run("identity", "dense", 0, 1, TrainConfig(epochs=2, learning_rate=1e-9, max_restarts=2))
        assert row.restarts == 2 and row.failed

    def test_loss_follows_experiment_not_override(self):
        # the loss is a property of the network build_network makes; no
        # training option can override it
        for arch in ("dense", "conv"):
            assert build_network("identity", arch, SeededRng(0)).loss == "squared_error"
            assert build_network("rule", arch, SeededRng(0)).loss == "cross_entropy"
        with pytest.raises(TypeError):
            TrainConfig(loss="squared_error")


class TestSeeding:
    def test_child_seeds_are_mixed_from_architecture_and_index(self):
        report = run_experiment(small_spec(architectures=("dense", "conv"), runs=2))
        for arch_report in report.architectures:
            for row in arch_report.runs:
                want = derive_seed(0, f"identity_{row.architecture}", row.run_index)
                assert row.seed == want

    def test_adding_an_architecture_does_not_shift_streams(self):
        conv_only = run_experiment(small_spec(runs=2))
        both = run_experiment(small_spec(architectures=("dense", "conv"), runs=2))
        conv_rows_a = conv_only.architectures[0].runs
        conv_rows_b = next(a for a in both.architectures if a.architecture == "conv").runs
        assert conv_rows_a == conv_rows_b

    def test_master_seed_changes_every_run(self):
        a = run_experiment(small_spec(runs=2))
        b = run_experiment(small_spec(runs=2, master_seed=1))
        seeds_a = [r.seed for r in a.architectures[0].runs]
        seeds_b = [r.seed for r in b.architectures[0].runs]
        assert set(seeds_a).isdisjoint(seeds_b)


class TestRunExperiment:
    def test_report_is_internally_consistent(self):
        report = run_experiment(small_spec(architectures=("dense", "conv"), runs=4))
        assert report.version == symnet.__version__
        assert report.config["runs"] == 4
        for arch in report.architectures:
            kept = [r for r in arch.runs if not r.failed]
            assert arch.failed_runs == len(arch.runs) - len(kept)
            assert arch.mean_train_accuracy == sum(r.train_accuracy for r in kept) / len(kept)
            assert arch.mean_test_accuracy == sum(r.test_accuracy for r in kept) / len(kept)
            assert [r.run_index for r in arch.runs] == list(range(4))

    def test_rows_are_reproducible_from_stored_seed(self):
        report = run_experiment(small_spec(runs=2))
        cfg = resolved_train_config(small_spec(runs=2))
        for row in report.architectures[0].runs:
            again = execute_run(row.experiment, row.architecture, row.run_index, row.seed, cfg, 5)
            assert again == row

    def test_parallel_execution_matches_serial(self):
        spec = small_spec(runs=4)
        serial = run_experiment(spec)
        parallel = run_experiment(spec, workers=3)
        assert render_csv(serial) == render_csv(parallel)

    def test_restart_budget_is_respected_in_rows(self):
        spec = ExperimentSpec(experiment="rule", architectures=("conv",), runs=3)
        report = run_experiment(spec)
        for row in report.architectures[0].runs:
            assert row.restarts <= 50


class TestReports:
    def test_csv_header_is_bit_exact(self):
        csv_text = render_csv(run_experiment(small_spec(runs=1)))
        assert csv_text.splitlines()[0] == RUN_HEADER

    def test_csv_has_summary_block(self):
        report = run_experiment(small_spec(runs=2))
        lines = render_csv(report).splitlines()
        assert "" in lines
        split_at = lines.index("")
        assert lines[split_at + 1] == "experiment,architecture,runs,failed_runs,mean_train_accuracy,mean_test_accuracy"
        assert len(lines[1:split_at]) == 2  # one row per run

    def test_markdown_labels_architectures_like_the_reports_it_mirrors(self):
        report = run_experiment(small_spec(architectures=("dense", "conv"), runs=1))
        md = render_markdown(report)
        assert "| Unconstrained |" in md
        assert "| Convolutional |" in md
        assert md.index("Unconstrained") < md.index("Convolutional")

    def test_json_round_trips(self):
        # every field of the report, floats included, survives a JSON load
        report = run_experiment(small_spec(architectures=("dense", "conv"), runs=2))
        assert json.loads(render_json(report)) == asdict(report)

    def test_json_is_plain_data(self):
        payload = json.loads(render_json(run_experiment(small_spec(runs=1))))
        assert payload["experiment"] == "identity"
        assert payload["config"]["learning_rate"] == 1.0
        assert len(payload["architectures"][0]["runs"]) == 1

    def test_write_report_to_file(self, tmp_path):
        report = run_experiment(small_spec(runs=1))
        out = tmp_path / "report.csv"
        write_report(report, "csv", str(out))
        assert out.read_text(encoding="utf-8") == render_csv(report)

    def test_write_report_unknown_format(self):
        report = run_experiment(small_spec(runs=1))
        with pytest.raises(ValueError):
            write_report(report, "xml", None)

    def test_write_report_propagates_io_errors(self, tmp_path):
        report = run_experiment(small_spec(runs=1))
        with pytest.raises(OSError):
            write_report(report, "csv", str(tmp_path / "missing" / "report.csv"))


class TestParseCli:
    def test_defaults_resolve_per_experiment(self):
        spec, args = parse_cli(["--experiment", "identity"])
        assert spec.architectures == ("dense", "conv")
        assert spec.runs == 100
        assert spec.train.learning_rate == 1.0
        assert spec.train.max_restarts == 0
        assert args.format == "md"
        assert args.out is None
        assert args.export_dataset is None
        assert spec.filter_width == 5
        rule, _ = parse_cli(["--experiment", "rule"])
        assert rule.train.learning_rate == 0.1
        assert rule.train.max_restarts == 50

    def test_explicit_flags_override(self):
        spec, args = parse_cli([
            "--experiment", "rule", "--arch", "conv", "--runs", "7", "--epochs", "200",
            "--lr", "0.05", "--seed", "9", "--max-restarts", "3", "--format", "csv",
            "--out", "x.csv", "--export-dataset", "d.csv",
        ])
        assert spec.architectures == ("conv",)
        assert spec.runs == 7
        assert spec.train.epochs == 200
        assert spec.train.learning_rate == 0.05
        assert spec.train.max_restarts == 3
        assert spec.master_seed == 9
        assert args.format == "csv"
        assert args.out == "x.csv"
        assert args.export_dataset == "d.csv"

    @pytest.mark.parametrize(
        "argv",
        [
            [],  # missing required flag
            ["--experiment", "parity"],
            ["--experiment", "identity", "--runs", "0"],
            ["--experiment", "identity", "--epochs", "-5"],
            ["--experiment", "identity", "--lr", "0"],
            ["--experiment", "identity", "--max-restarts", "-1"],
            ["--experiment", "identity", "--filter-width", "4"],
            ["--experiment", "identity", "--format", "yaml"],
            ["--experiment", "identity", "--no-such-flag"],
        ],
    )
    def test_usage_errors_exit_with_code_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 1
        assert "error" in capsys.readouterr().err


class TestMain:
    def test_successful_run_writes_report_and_returns_zero(self, tmp_path):
        out = tmp_path / "r.md"
        code = main(["--experiment", "identity", "--arch", "conv", "--runs", "2", "--out", str(out)])
        assert code == 0
        assert "| Convolutional |" in out.read_text(encoding="utf-8")

    def test_stdout_is_the_default_sink(self, capsys):
        assert main(["--experiment", "identity", "--arch", "conv", "--runs", "1"]) == 0
        assert "Identity experiment" in capsys.readouterr().out

    def test_export_dataset_writes_instances(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "r.md"
        code = main([
            "--experiment", "rule", "--arch", "conv", "--runs", "1",
            "--out", str(out), "--export-dataset", str(data),
        ])
        assert code == 0
        text = data.read_text(encoding="utf-8")
        assert text.startswith("split,input,target\n")
        assert "test,wo fe wo,ABA" in text

    def test_unwritable_output_returns_two(self, tmp_path, capsys):
        code = main([
            "--experiment", "identity", "--arch", "conv", "--runs", "1",
            "--out", str(tmp_path / "no" / "dir" / "r.md"),
        ])
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_yields_identical_bytes(self):
        spec = small_spec(runs=2)
        assert render_csv(run_experiment(spec)) == render_csv(run_experiment(spec))

    def test_single_run_report_is_a_pure_function_of_the_spec(self):
        spec = small_spec(runs=1, master_seed=42)
        a = render_json(run_experiment(spec))
        b = render_json(run_experiment(spec))
        assert a == b


class TestGoldenReports:
    def test_reports_match_golden_bytes(self):
        # Recorded with master seed 0; a refactor that shifts every run the
        # same way keeps reruns equal to each other but breaks these bytes.
        for experiment in ("identity", "rule"):
            report = run_experiment(ExperimentSpec(experiment, runs=5, master_seed=0))
            for suffix, render in (("csv", render_csv), ("md", render_markdown)):
                golden = (GOLDEN_DIR / f"report_{experiment}.{suffix}").read_bytes()
                assert render(report).encode("utf-8") == golden, f"report_{experiment}.{suffix}"
