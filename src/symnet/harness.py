"""Command-line experiment runner.

Executes the 100-run protocol for one experiment, for one or both
architectures, and renders the per-run and aggregate results as CSV, JSON,
or a Markdown table.  Every run's seed is mixed from the master seed, the
architecture id, and the run index, so reports are byte-identical across
reruns and worker counts on the same numpy/BLAS build (dense layers contract
through BLAS, whose kernels can round differently on other builds or CPUs),
and enabling the second architecture never shifts the first one's streams.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from symnet.ndcore import SeededRng, derive_seed
from symnet.layers import Conv1DLayer, DenseLayer, GlobalMaxPool, Reshape, Sigmoid, Transpose
from symnet.training import Network, RunReport, TrainConfig, evaluate, train
from symnet.tasks import Dataset, dataset_to_csv, make_identity_dataset, make_rule_dataset

EXPERIMENTS = ("identity", "rule")
ARCHITECTURES = ("dense", "conv")  # report order: unconstrained first
ARCH_LABELS = {"dense": "Unconstrained", "conv": "Convolutional"}
FORMATS = ("csv", "json", "md")

# defaults validated against the acceptance suite; see README
DEFAULT_LEARNING_RATES = {"identity": 1.0, "rule": 0.1}
DEFAULT_MAX_RESTARTS = {"identity": 0, "rule": 50}
# fixed per experiment (regression vs classification); build_network sets it
EXPERIMENT_LOSSES = {"identity": "squared_error", "rule": "cross_entropy"}


@dataclass
class ExperimentSpec:
    experiment: str
    architectures: tuple[str, ...] = ARCHITECTURES
    runs: int = 100
    train: TrainConfig | None = None  # None = experiment defaults
    master_seed: int = 0
    filter_width: int = 5

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        self.architectures = tuple(self.architectures)
        if not self.architectures:
            raise ValueError("at least one architecture must be selected")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {arch!r}; expected a subset of {ARCHITECTURES}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.filter_width < 1 or self.filter_width % 2 == 0:
            raise ValueError("filter width must be a positive odd integer")


@dataclass
class ArchitectureReport:
    architecture: str
    runs: list[RunReport]
    # means are over non-failed runs only and None when every run failed
    mean_train_accuracy: float | None
    mean_test_accuracy: float | None
    failed_runs: int


@dataclass
class ExperimentReport:
    experiment: str
    architectures: list[ArchitectureReport]
    config: dict
    version: str


def resolved_train_config(spec: ExperimentSpec) -> TrainConfig:
    """The spec's own TrainConfig, or the experiment's defaults if it has none."""
    if spec.train is not None:
        return spec.train
    return TrainConfig(
        learning_rate=DEFAULT_LEARNING_RATES[spec.experiment],
        max_restarts=DEFAULT_MAX_RESTARTS[spec.experiment],
    )


def make_dataset(experiment: str) -> Dataset:
    if experiment == "identity":
        return make_identity_dataset()
    if experiment == "rule":
        return make_rule_dataset()
    raise ValueError(f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")


def build_network(experiment: str, architecture: str, rng: SeededRng, filter_width: int = 5) -> Network:
    """Constructs one of the four architectures, drawing parameters from rng.

    identity/dense   5 in -> 5 out fully connected, sigmoid outputs
    identity/conv    1-channel width-``filter_width`` conv, zero-padded to
                     keep 5 positions, sigmoid outputs
    rule/dense       36 in -> 24 hidden, regrouped as 2 channels x 12
                     positions, global max pool to 2 logits
    rule/conv        width-1 conv projecting the 3 sequence slots to 2
                     channels at each of the 12 word positions, global max
                     pool to 2 logits

    Identity nets train on squared error; rule nets train on cross-entropy
    over the logits, and their ``predict`` adds the 2-way softmax.
    """
    arch_id = f"{experiment}_{architecture}"
    if arch_id == "identity_dense":
        stages = [DenseLayer.from_rng(rng, 5, 5), Sigmoid()]
    elif arch_id == "identity_conv":
        stages = [
            Reshape((5,), (1, 5)),
            Conv1DLayer.from_rng(rng, 1, 1, filter_width, padding="zero_same"),
            Reshape((1, 5), (5,)),
            Sigmoid(),
        ]
    elif arch_id == "rule_dense":
        stages = [
            Reshape((12, 3), (36,)),
            DenseLayer.from_rng(rng, 36, 24),
            Reshape((24,), (2, 12)),
            GlobalMaxPool(),
        ]
    elif arch_id == "rule_conv":
        stages = [
            Transpose(),
            Conv1DLayer.from_rng(rng, 3, 2, 1, padding="none"),
            GlobalMaxPool(),
        ]
    else:
        raise ValueError(f"unknown experiment/architecture pair {experiment!r}/{architecture!r}")
    return Network(stages, architecture=arch_id, loss=EXPERIMENT_LOSSES[experiment])


def execute_run(
    experiment: str,
    architecture: str,
    run_index: int,
    seed: int,
    config: TrainConfig,
    filter_width: int = 5,
) -> RunReport:
    """Builds, trains, and evaluates one seeded run.  Pure in its arguments,
    so reports can be recomputed from the stored seed alone."""
    dataset = make_dataset(experiment)
    rng = SeededRng(seed)
    network = build_network(experiment, architecture, rng, filter_width)
    result = train(network, dataset.train, config, rng)
    return RunReport(
        experiment=experiment,
        architecture=architecture,
        run_index=run_index,
        seed=seed,
        restarts=result.restarts,
        train_accuracy=evaluate(network, dataset.train),
        test_accuracy=evaluate(network, dataset.test),
        final_loss=result.final_loss,
        failed=not result.reached_criterion,
    )


def _execute_run_packed(args: tuple) -> RunReport:
    return execute_run(*args)


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Runs spec.runs seeded runs per architecture and aggregates them.

    Child seeds depend only on (master seed, architecture id, run index),
    and rows are merged back in run order, so the report is a pure function
    of its ExperimentSpec whatever the worker count.
    """
    config = resolved_train_config(spec)
    jobs = [
        (spec.experiment, arch, i, derive_seed(spec.master_seed, f"{spec.experiment}_{arch}", i), config, spec.filter_width)
        for arch in spec.architectures
        for i in range(spec.runs)
    ]
    if workers <= 1:
        rows = [execute_run(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_execute_run_packed, jobs))

    arch_reports = []
    for arch in spec.architectures:
        arch_rows = sorted((r for r in rows if r.architecture == arch), key=lambda r: r.run_index)
        kept = [r for r in arch_rows if not r.failed]
        arch_reports.append(
            ArchitectureReport(
                architecture=arch,
                runs=arch_rows,
                mean_train_accuracy=_mean([r.train_accuracy for r in kept]),
                mean_test_accuracy=_mean([r.test_accuracy for r in kept]),
                failed_runs=len(arch_rows) - len(kept),
            )
        )

    from symnet import __version__

    return ExperimentReport(
        experiment=spec.experiment,
        architectures=arch_reports,
        config={
            "runs": spec.runs,
            "epochs": config.epochs,
            "learning_rate": config.learning_rate,
            "loss": EXPERIMENT_LOSSES[spec.experiment],
            "max_restarts": config.max_restarts,
            "master_seed": spec.master_seed,
            "filter_width": spec.filter_width,
        },
        version=__version__,
    )


RUN_COLUMNS = ("experiment", "architecture", "run_index", "seed", "restarts", "train_accuracy", "test_accuracy", "final_loss")
SUMMARY_COLUMNS = ("experiment", "architecture", "runs", "failed_runs", "mean_train_accuracy", "mean_test_accuracy")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: ExperimentReport) -> str:
    """Per-run rows under the fixed header, then a blank line and a summary
    block with one row per architecture."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for arch in report.architectures:
        for row in arch.runs:
            writer.writerow([_csv_cell(getattr(row, column)) for column in RUN_COLUMNS])
    writer.writerow([])
    writer.writerow(SUMMARY_COLUMNS)
    for arch in report.architectures:
        writer.writerow([
            report.experiment,
            arch.architecture,
            _csv_cell(len(arch.runs)),
            _csv_cell(arch.failed_runs),
            _csv_cell(arch.mean_train_accuracy),
            _csv_cell(arch.mean_test_accuracy),
        ])
    return buf.getvalue()


def render_json(report: ExperimentReport) -> str:
    payload = {
        "experiment": report.experiment,
        "version": report.version,
        "config": report.config,
        "architectures": [
            {
                "architecture": arch.architecture,
                "mean_train_accuracy": arch.mean_train_accuracy,
                "mean_test_accuracy": arch.mean_test_accuracy,
                "failed_runs": arch.failed_runs,
                "runs": [asdict(run) for run in arch.runs],
            }
            for arch in report.architectures
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _percent(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def render_markdown(report: ExperimentReport) -> str:
    """Accuracy table with one row per architecture, then the run config."""
    lines = [f"# {report.experiment.capitalize()} experiment", ""]
    lines.append("| Architecture | Training accuracy | Test accuracy |")
    lines.append("| --- | --- | --- |")
    for arch in report.architectures:
        label = ARCH_LABELS[arch.architecture]
        lines.append(f"| {label} | {_percent(arch.mean_train_accuracy)} | {_percent(arch.mean_test_accuracy)} |")
    lines.append("")
    cfg = report.config
    lines.append(
        f"{cfg['runs']} runs per architecture, {cfg['epochs']} epochs, "
        f"learning rate {cfg['learning_rate']}, {cfg['loss']} loss, "
        f"max restarts {cfg['max_restarts']}, seed {cfg['master_seed']}, "
        f"filter width {cfg['filter_width']}, version {report.version}."
    )
    failed = {a.architecture: a.failed_runs for a in report.architectures if a.failed_runs}
    if failed:
        noted = ", ".join(f"{ARCH_LABELS[a]} {n}" for a, n in failed.items())
        lines.append(f"Failed runs excluded from the means: {noted}.")
    else:
        lines.append("Failed runs: none.")
    lines.append("")
    return "\n".join(lines)


RENDERERS = {"csv": render_csv, "json": render_json, "md": render_markdown, "markdown": render_markdown}


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def write_report(report: ExperimentReport, output_format: str, path: str | None = None) -> None:
    if output_format not in RENDERERS:
        raise ValueError(f"unknown format {output_format!r}; expected one of {FORMATS}")
    _write_text(RENDERERS[output_format](report), path)


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1; argparse's default is 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def parse_cli(argv=None) -> tuple[ExperimentSpec, argparse.Namespace]:
    """Parses flags into a fully resolved ExperimentSpec, returned with the
    parsed flags, which also name the report and dataset sinks.  Exits with
    code 1 on any usage error, including values that TrainConfig or
    ExperimentSpec reject."""
    parser = _Parser(
        prog="symnet",
        description="Run the identity or rule generalisation experiment and report per-seed accuracies.",
    )
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS, help="which task to run")
    parser.add_argument("--arch", default="both", choices=("conv", "dense", "both"), help="architecture(s) to run (default both)")
    parser.add_argument("--runs", type=int, default=100, help="number of seeded runs per architecture (default 100)")
    parser.add_argument("--epochs", type=int, default=1000, help="training epochs per run (default 1000)")
    parser.add_argument("--lr", type=float, default=None, help="learning rate (default 1.0 for identity, 0.1 for rule)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--max-restarts", type=int, default=None, help="restart budget per run below 100%% training accuracy (default 0 for identity, 50 for rule)")
    parser.add_argument("--format", default="md", choices=FORMATS, help="report format (default md)")
    parser.add_argument("--out", default=None, metavar="PATH", help="report destination (default stdout)")
    parser.add_argument("--filter-width", type=int, default=5, help="filter width for the identity conv network (default 5)")
    parser.add_argument("--export-dataset", default=None, metavar="PATH", help="also write the experiment's dataset as CSV")
    args = parser.parse_args(argv)

    try:
        config = TrainConfig(
            epochs=args.epochs,
            learning_rate=args.lr if args.lr is not None else DEFAULT_LEARNING_RATES[args.experiment],
            max_restarts=args.max_restarts if args.max_restarts is not None else DEFAULT_MAX_RESTARTS[args.experiment],
        )
        spec = ExperimentSpec(
            experiment=args.experiment,
            architectures=ARCHITECTURES if args.arch == "both" else (args.arch,),
            runs=args.runs,
            train=config,
            master_seed=args.seed,
            filter_width=args.filter_width,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return spec, args


def main(argv=None) -> int:
    spec, args = parse_cli(argv)
    try:
        if args.export_dataset is not None:
            _write_text(dataset_to_csv(make_dataset(spec.experiment)), args.export_dataset)
        report = run_experiment(spec)
        write_report(report, args.format, args.out)
    except OSError as exc:
        target = getattr(exc, "filename", None) or args.out or args.export_dataset
        print(f"symnet: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
