"""Experiment runner: network construction, seeding, reports, CLI."""

import functools
import hashlib
import json
import math
import multiprocessing
import warnings
from concurrent.futures import Future
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import symnet
from symnet import harness
from symnet.ndcore import SeededRng, derive_seed, init_uniform
from symnet.tasks import make_identity_dataset, make_rule_dataset
from symnet.training import TrainConfig
from symnet.harness import (
    ExperimentSpec,
    RunReport,
    build_network,
    execute_run,
    execute_runs,
    main,
    parse_cli,
    render_csv,
    render_json,
    render_markdown,
    resolved_train_config,
    run_experiment,
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

    def test_rule_dense_hidden_width(self):
        net = build_network("rule", "dense", SeededRng(0))
        dense = net.parametric_stages[0]
        assert dense.weights.shape == (24, 36)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError):
            build_network("identity", "transformer", SeededRng(0))
        with pytest.raises(ValueError):
            build_network("parity", "conv", SeededRng(0))

    def test_kernel_is_the_first_draw_of_the_rng_and_bias_is_zero(self):
        for experiment in harness.EXPERIMENTS:
            for architecture in harness.ARCHITECTURES:
                (stage,) = build_network(experiment, architecture, SeededRng(17)).parametric_stages
                kernel = getattr(stage, stage.params[0])
                assert kernel.tobytes() == init_uniform(SeededRng(17), kernel.shape).tobytes()
                assert stage.bias.tobytes() == np.zeros(stage.bias.shape).tobytes()

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
        with pytest.raises(ValueError, match=r"tuple such as \('conv',\)"):
            ExperimentSpec("identity", "conv")  # not one architecture per letter
        with pytest.raises(ValueError):
            ExperimentSpec(experiment="identity", runs=0)

    @pytest.mark.parametrize("field,value", [("runs", 2.5), ("runs", "4"), ("master_seed", 1.5), ("master_seed", np.float64(0.0))])
    def test_non_integer_counts_are_rejected_naming_the_field(self, field, value):
        # a float would otherwise build and fail deep inside run_experiment
        with pytest.raises(ValueError, match=field):
            ExperimentSpec("identity", **{field: value})

    def test_master_seed_outside_64_bits_is_rejected(self):
        # seeds are mixed modulo 2**64, so -1 would silently run as 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                ExperimentSpec(experiment="identity", master_seed=seed)
        assert ExperimentSpec(experiment="identity", master_seed=2**64 - 1).master_seed == 2**64 - 1
        assert parse_cli(["--experiment", "identity", "--seed", "0"])[0].master_seed == 0
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--experiment", "identity", "--seed", "-1"])
        assert exc.value.code == 1

    def test_filter_width_is_not_an_option(self):
        # the identity conv's width is fixed at harness.FILTER_WIDTH
        with pytest.raises(TypeError):
            ExperimentSpec(experiment="identity", filter_width=3)

    def test_repeated_architecture_is_rejected(self):
        # each architecture's rows and summary would otherwise appear once per repeat
        with pytest.raises(ValueError, match="architectures"):
            ExperimentSpec(experiment="identity", architectures=("conv", "conv"), runs=2)
        with pytest.raises(ValueError, match="architectures"):
            ExperimentSpec(experiment="identity", architectures=("dense", "conv", "dense"))

    def test_experiment_defaults(self):
        identity = resolved_train_config(ExperimentSpec(experiment="identity"))
        assert identity.learning_rate == 1.0
        assert identity.max_restarts == 0
        rule = resolved_train_config(ExperimentSpec(experiment="rule"))
        assert rule.learning_rate == 0.1
        assert rule.max_restarts == 50

    def test_identity_max_restarts_is_honoured(self):
        spec = ExperimentSpec(experiment="identity", train=TrainConfig(learning_rate=1.0, max_restarts=50))
        assert resolved_train_config(spec).max_restarts == 50
        assert parse_cli(["--experiment", "identity", "--max-restarts", "3"])[0].train.max_restarts == 3
        # an unlearnable step size uses up the whole budget, so every restart shows in the row
        row = execute_run("identity", "dense", 0, 1, TrainConfig(epochs=2, learning_rate=1e-9, max_restarts=2))
        assert row.restarts == 2 and row.failed

    def test_experiment_tables_share_one_key_set(self):
        assert harness.EXPERIMENTS == ("identity", "rule")
        for table in (harness.DEFAULT_LEARNING_RATES, harness.DEFAULT_MAX_RESTARTS, harness.EXPERIMENT_LOSSES):
            assert tuple(table) == harness.EXPERIMENTS
        with pytest.raises(KeyError):
            harness.make_dataset("parity")

    def test_loss_follows_experiment_not_override(self):
        # the loss is a property of the network build_network makes; no
        # training option can override it
        for arch in ("dense", "conv"):
            assert build_network("identity", arch, SeededRng(0)).loss == "squared_error"
            assert build_network("rule", arch, SeededRng(0)).loss == "cross_entropy"
        with pytest.raises(TypeError):
            TrainConfig(learning_rate=1.0, max_restarts=0, loss="squared_error")


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
            again = execute_run(row.experiment, row.architecture, row.run_index, row.seed, cfg)
            assert again == row

    def test_parallel_execution_matches_serial(self):
        # more workers than architectures: conv still trains whole in one
        # pool process, and the extra worker is never started
        for runs in (4, 2):
            spec = small_spec(architectures=("dense", "conv"), runs=runs)
            serial = run_experiment(spec)
            parallel = run_experiment(spec, workers=3)
            assert render_csv(serial) == render_csv(parallel), runs

    @pytest.mark.parametrize("runs", [4, 1])
    def test_one_architecture_per_worker_matches_serial(self, runs):
        spec = small_spec(architectures=("dense", "conv"), runs=runs)
        assert render_csv(run_experiment(spec, workers=2)) == render_csv(run_experiment(spec))

    def test_spawned_pool_matches_serial(self, monkeypatch):
        # a fresh interpreter per worker pickles every job and imports the
        # package anew, as the forkserver default of newer Pythons does
        spawn = functools.partial(harness.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        spec = small_spec(architectures=("dense", "conv"), runs=2)
        serial = render_csv(run_experiment(spec))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", spawn)
        assert render_csv(run_experiment(spec, workers=2)) == serial

    @pytest.mark.parametrize("workers", [0, -2, 2.5])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(small_spec(runs=1), workers=workers)

    def test_diverging_runs_fail_without_warnings(self):
        # a member whose loss overflows is frozen and reported as failed, quietly
        for experiment in harness.EXPERIMENTS:
            config = TrainConfig(epochs=20, learning_rate=1e308, max_restarts=harness.DEFAULT_MAX_RESTARTS[experiment])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                report = run_experiment(ExperimentSpec(experiment, runs=2, train=config))
            rows = [row for arch in report.architectures for row in arch.runs]
            assert len(rows) == 4
            assert all(row.failed and math.isnan(row.final_loss) for row in rows), experiment
            # the CSV writes a nan loss as nan and a mean over no runs as an empty cell
            run_block, summary_block = render_csv(report).split("\n\n")
            run_lines, summary_lines = run_block.splitlines()[1:], summary_block.splitlines()[1:]
            assert len(run_lines) == 4 and all(line.endswith(",nan") for line in run_lines), experiment
            assert len(summary_lines) == 2 and all(line.endswith(",2,2,,") for line in summary_lines), experiment

    def test_restart_budget_is_respected_in_rows(self):
        spec = ExperimentSpec(experiment="rule", architectures=("conv",), runs=3)
        report = run_experiment(spec)
        for row in report.architectures[0].runs:
            assert row.restarts <= 50


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: runs each submitted job inline and records it."""

    def __init__(self, pools, max_workers):
        self.max_workers = max_workers
        self.jobs = []
        pools.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.jobs.append((fn, args))
        future = Future()
        future.set_result(fn(*args))
        return future


class TestSlices:
    """Each architecture's runs are one ``execute_runs`` job, trained whole by one process."""

    @staticmethod
    def plan(monkeypatch, spec, workers):
        """Runs ``spec`` with training stubbed out.  Returns the report, the jobs the calling
        process trained, and each pool's (size, jobs); a job is (architecture, run indices)."""
        calls = []

        def fake_runs(experiment, arch, indices, seeds, config):
            calls.append((arch, list(indices)))
            return [RunReport(experiment, arch, i, seed, 0, 1.0, 1.0, 0.0) for i, seed in zip(indices, seeds)]

        pools = []
        monkeypatch.setattr(harness, "execute_runs", fake_runs)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(_RecordingPool, pools))
        report = run_experiment(spec, workers=workers)
        pooled = [(pool.max_workers, [(args[1], args[2]) for _, args in pool.jobs]) for pool in pools]
        inline = list(calls)
        for _, jobs in pooled:
            for job in jobs:
                inline.remove(job)
        return report, inline, pooled

    @pytest.mark.parametrize("runs", [1, 2, 3, 4, 7, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 8])
    def test_every_pair_once_in_architecture_major_order(self, monkeypatch, runs, workers):
        spec = small_spec(architectures=("dense", "conv"), runs=runs)
        report, inline, pooled = self.plan(monkeypatch, spec, workers)
        pairs = [(arch.architecture, row.run_index) for arch in report.architectures for row in arch.runs]
        assert pairs == [(arch, i) for arch in ("dense", "conv") for i in range(runs)]
        # one job per architecture holding all its runs, over min(workers, architectures) processes
        jobs = inline + [job for _, pool_jobs in pooled for job in pool_jobs]
        assert sorted(jobs) == [("conv", list(range(runs))), ("dense", list(range(runs)))]
        assert 1 + sum(size for size, _ in pooled) == min(workers, 2)

    @pytest.mark.parametrize("runs", [1, 2, 100])
    def test_no_more_workers_than_architectures_splits_no_cell(self, monkeypatch, runs):
        _, inline, pooled = self.plan(monkeypatch, small_spec(architectures=("dense", "conv"), runs=runs), 2)
        assert inline == [("dense", list(range(runs)))]
        assert pooled == [(1, [("conv", list(range(runs)))])]

    def test_workers_beyond_the_pairs_start_no_pool(self, monkeypatch):
        spec = small_spec(runs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a single architecture must not start a process pool")

        serial = render_csv(run_experiment(spec))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert render_csv(run_experiment(spec, workers=3)) == serial

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_one_pool_process_trains_conv_whole(self, monkeypatch, workers):
        spec = small_spec(architectures=("dense", "conv"), runs=3)
        serial = render_csv(run_experiment(spec))
        pools = []
        monkeypatch.setattr(harness, "ProcessPoolExecutor", functools.partial(_RecordingPool, pools))
        assert render_csv(run_experiment(spec, workers=workers)) == serial
        [pool] = pools
        assert pool.max_workers == 1
        [(fn, args)] = pool.jobs
        assert fn is execute_runs
        assert args[1:3] == ("conv", [0, 1, 2])


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

    def test_json_writes_a_diverged_loss_as_null(self):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        spec = small_spec(runs=1, train=TrainConfig(epochs=5, learning_rate=1e308, max_restarts=0))
        payload = json.loads(render_json(run_experiment(spec)), parse_constant=reject)
        [row] = payload["architectures"][0]["runs"]
        assert row["failed"] and row["final_loss"] is None

    def test_json_is_plain_data(self):
        payload = json.loads(render_json(run_experiment(small_spec(runs=1))))
        assert payload["experiment"] == "identity"
        assert payload["config"]["learning_rate"] == 1.0
        assert len(payload["architectures"][0]["runs"]) == 1

    def test_write_report_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["--experiment", "identity", "--arch", "conv", "--runs", "1", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_bytes() == render_csv(run_experiment(small_spec(runs=1))).encode("utf-8")


class TestParseCli:
    def test_defaults_resolve_per_experiment(self):
        spec, args = parse_cli(["--experiment", "identity"])
        assert spec.architectures == ("dense", "conv")
        assert spec.runs == 100
        assert spec.master_seed == 0
        assert spec.train.epochs == 1000
        assert spec.train.learning_rate == 1.0
        assert spec.train.max_restarts == 0
        assert args.format == "md"
        assert args.out is None
        assert args.export_dataset is None
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

    def test_help_names_the_per_experiment_defaults_from_their_tables(self, monkeypatch, capsys):
        monkeypatch.setitem(harness.DEFAULT_LEARNING_RATES, "identity", 0.25)
        monkeypatch.setitem(harness.DEFAULT_MAX_RESTARTS, "rule", 7)
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
        assert "learning rate (default 0.25 for identity, 0.1 for rule)" in text
        assert "training accuracy (default 0 for identity, 7 for rule)" in text

    @pytest.mark.parametrize(
        "argv",
        [
            [],  # missing required flag
            ["--experiment", "parity"],
            ["--experiment", "identity", "--runs", "0"],
            ["--experiment", "identity", "--epochs", "-5"],
            ["--experiment", "identity", "--lr", "0"],
            ["--experiment", "identity", "--max-restarts", "-1"],
            ["--experiment", "identity", "--filter-width", "4"],  # no such flag: the width is fixed
            ["--experiment", "identity", "--format", "yaml"],
            ["--experiment", "identity", "--no-such-flag"],
            ["--experiment", "rule", "--filter-width", "3"],
            ["--experiment", "rule", "--lr", "inf"],
            ["--experiment", "identity", "--format", "markdown"],  # no alias beside csv, json, md
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

    def test_json_reports_match_golden_bytes(self):
        # key order and float spelling included, which a dict comparison misses
        for experiment in ("identity", "rule"):
            report = run_experiment(ExperimentSpec(experiment, runs=5, master_seed=0))
            golden = (GOLDEN_DIR / f"report_{experiment}.json").read_bytes()
            assert render_json(report).encode("utf-8") == golden, f"report_{experiment}.json"

    def test_diverged_markdown_matches_golden_bytes(self, capsys):
        # every run fails, so the table holds only n/a and the failed-runs line
        assert main(["--experiment", "rule", "--lr", "1e308", "--runs", "2", "--epochs", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == (GOLDEN_DIR / "report_rule_diverged.md").read_bytes()
        assert captured.err == ""

    def test_default_100_run_reports_match_golden_digests(self):
        # The full default protocol at master seed 0, whose ensembles reduce
        # over 100 members; the 5-run golden bytes above cannot show an
        # error that appears only at that size.
        digests = dict(
            line.split()[::-1] for line in (GOLDEN_DIR / "report_100_runs.sha256").read_text(encoding="utf-8").splitlines()
        )
        for experiment in ("identity", "rule"):
            text = render_csv(run_experiment(ExperimentSpec(experiment, master_seed=0)))
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digests[f"report_{experiment}_100.csv"], experiment
