"""Command-line experiment runner.

Executes the 100-run protocol for one experiment, for one or both
architectures, and renders the per-run and aggregate results as CSV, JSON,
or a Markdown table.  The runs of one architecture train in one process, as
one ensemble along a leading run axis.  Every run's seed is mixed from the
master seed, the architecture id, and the run index, so reports are
byte-identical across reruns and worker counts on the same numpy/BLAS
build and CPU, and enabling the second architecture never shifts the
first one's streams.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import operator
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from symnet.ndcore import SeededRng, derive_seed
from symnet.layers import Conv1DLayer, DenseLayer, GlobalMaxPool, Reshape, Sigmoid, Transpose
from symnet.training import Network, TrainConfig, evaluate, train
from symnet.tasks import Dataset, dataset_to_csv, make_identity_dataset, make_rule_dataset

DATASETS = {"identity": make_identity_dataset, "rule": make_rule_dataset}
EXPERIMENTS = tuple(DATASETS)
ARCHITECTURES = ("dense", "conv")  # report order: unconstrained first
ARCH_LABELS = {"dense": "Unconstrained", "conv": "Convolutional"}

# defaults validated against the acceptance suite; see README
DEFAULT_LEARNING_RATES = {"identity": 1.0, "rule": 0.1}
DEFAULT_MAX_RESTARTS = {"identity": 0, "rule": 50}
# fixed per experiment (regression vs classification); build_network sets it
EXPERIMENT_LOSSES = {"identity": "squared_error", "rule": "cross_entropy"}
FILTER_WIDTH = 5  # the identity conv's filter; rule nets use a width-1 conv


@dataclass
class ExperimentSpec:
    experiment: str
    architectures: tuple[str, ...] = ARCHITECTURES
    runs: int = 100
    train: TrainConfig | None = None  # None = experiment defaults
    master_seed: int = 0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if isinstance(self.architectures, str):
            raise ValueError(f"architectures must be a tuple such as ({self.architectures!r},), not a bare string")
        self.architectures = tuple(self.architectures)
        if not self.architectures:
            raise ValueError("at least one architecture must be selected")
        for arch in self.architectures:
            if arch not in ARCHITECTURES:
                raise ValueError(f"unknown architecture {arch!r}; expected a subset of {ARCHITECTURES}")
        if len(set(self.architectures)) != len(self.architectures):
            raise ValueError(f"architectures must not repeat, got {self.architectures}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be in [0, 2**64), so that no two seeds alias")


# The field order of these three reports is the key order of the JSON report.
@dataclass
class RunReport:
    experiment: str
    architecture: str
    run_index: int
    seed: int
    restarts: int
    train_accuracy: float
    test_accuracy: float
    final_loss: float
    failed: bool = False  # never reached 100% training accuracy


@dataclass
class ArchitectureReport:
    architecture: str
    # means are over non-failed runs only and None when every run failed
    mean_train_accuracy: float | None
    mean_test_accuracy: float | None
    failed_runs: int
    runs: list[RunReport]


@dataclass
class ExperimentReport:
    experiment: str
    version: str
    config: dict
    architectures: list[ArchitectureReport]


def resolved_train_config(spec: ExperimentSpec) -> TrainConfig:
    """The spec's own TrainConfig, or the experiment's defaults if it has none."""
    if spec.train is not None:
        return spec.train
    return TrainConfig(
        learning_rate=DEFAULT_LEARNING_RATES[spec.experiment],
        max_restarts=DEFAULT_MAX_RESTARTS[spec.experiment],
    )


def make_dataset(experiment: str) -> Dataset:
    return DATASETS[experiment]()


def build_network(experiment: str, architecture: str, rng: SeededRng) -> Network:
    """Constructs one of the four architectures, drawing parameters from rng.

    identity/dense   5 in -> 5 out fully connected, sigmoid outputs
    identity/conv    1-channel width-5 conv, zero-padded to keep 5
                     positions, sigmoid outputs
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
        stages = [DenseLayer(np.zeros((5, 5)), np.zeros(5)), Sigmoid()]
    elif arch_id == "identity_conv":
        stages = [
            Reshape((5,), (1, 5)),
            Conv1DLayer(np.zeros((1, 1, FILTER_WIDTH)), np.zeros(1), padding="zero_same"),
            Reshape((1, 5), (5,)),
            Sigmoid(),
        ]
    elif arch_id == "rule_dense":
        stages = [
            Reshape((12, 3), (36,)),
            DenseLayer(np.zeros((24, 36)), np.zeros(24)),
            Reshape((24,), (2, 12)),
            GlobalMaxPool(),
        ]
    elif arch_id == "rule_conv":
        stages = [
            Transpose(),
            Conv1DLayer(np.zeros((2, 3, 1)), np.zeros(2), padding="none"),
            GlobalMaxPool(),
        ]
    else:
        raise ValueError(f"unknown experiment/architecture pair {experiment!r}/{architecture!r}")
    network = Network(stages, loss=EXPERIMENT_LOSSES[experiment])
    network.reinitialize(rng)
    return network


def execute_runs(experiment: str, architecture: str, run_indices, seeds, config: TrainConfig) -> list[RunReport]:
    """Builds, trains, and evaluates seeded runs of one architecture, all
    at once as one ensemble; run ``run_indices[r]`` draws from ``seeds[r]``.
    Each row is pure in its own run index and seed, so reports can be
    recomputed from the stored seed alone."""
    dataset = make_dataset(experiment)
    rngs = [SeededRng(seed) for seed in seeds]
    ensemble = Network.stack([build_network(experiment, architecture, rng) for rng in rngs])
    results = train(ensemble, dataset.train, config, rngs)
    train_accuracy = evaluate(ensemble, dataset.train)
    test_accuracy = evaluate(ensemble, dataset.test)
    return [
        RunReport(
            experiment=experiment,
            architecture=architecture,
            run_index=run_index,
            seed=seed,
            restarts=result.restarts,
            train_accuracy=float(train_accuracy[r]),
            test_accuracy=float(test_accuracy[r]),
            final_loss=result.final_loss,
            failed=not result.reached_criterion,
        )
        for r, (run_index, seed, result) in enumerate(zip(run_indices, seeds, results))
    ]


def execute_run(experiment: str, architecture: str, run_index: int, seed: int, config: TrainConfig) -> RunReport:
    """One seeded run: ``execute_runs`` with a single member."""
    return execute_runs(experiment, architecture, [run_index], [seed], config)[0]


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentReport:
    """Runs spec.runs seeded runs per architecture and aggregates them.

    Each architecture's runs train as one ensemble in one process: the
    calling process trains the first, and a pool of up to ``workers - 1``
    processes the others.  Child seeds depend only on (master seed,
    architecture id, run index) and every member computes exactly what it
    would alone, so the report is a pure function of its ExperimentSpec
    whatever the worker count.
    """
    try:
        valid = operator.index(workers) >= 1
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    config = resolved_train_config(spec)
    indices = list(range(spec.runs))
    jobs = [
        (spec.experiment, arch, indices, [derive_seed(spec.master_seed, f"{spec.experiment}_{arch}", i) for i in indices], config)
        for arch in spec.architectures
    ]
    pool_size = min(workers - 1, len(jobs) - 1)
    if pool_size == 0:
        results = [execute_runs(*job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = [pool.submit(execute_runs, *job) for job in jobs[1:]]
            results = [execute_runs(*jobs[0])] + [future.result() for future in futures]

    arch_reports = []
    for arch, arch_rows in zip(spec.architectures, results):
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
            "filter_width": FILTER_WIDTH,
        },
        version=__version__,
    )


RUN_COLUMNS = ("experiment", "architecture", "run_index", "seed", "restarts", "train_accuracy", "test_accuracy", "final_loss")
SUMMARY_COLUMNS = ("experiment", "architecture", "runs", "failed_runs", "mean_train_accuracy", "mean_test_accuracy")


def render_csv(report: ExperimentReport) -> str:
    """Per-run rows under the fixed header, then a blank line and a summary
    block with one row per architecture.  ``csv.writer`` writes a float as
    its repr and None (a mean over no runs) as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RUN_COLUMNS)
    for arch in report.architectures:
        for row in arch.runs:
            writer.writerow([getattr(row, column) for column in RUN_COLUMNS])
    writer.writerow([])
    writer.writerow(SUMMARY_COLUMNS)
    for arch in report.architectures:
        writer.writerow([
            report.experiment,
            arch.architecture,
            len(arch.runs),
            arch.failed_runs,
            arch.mean_train_accuracy,
            arch.mean_test_accuracy,
        ])
    return buf.getvalue()


def render_json(report: ExperimentReport) -> str:
    """The report as strict JSON: a diverged run's non-finite loss is null."""
    payload = asdict(report)
    for arch in payload["architectures"]:
        for row in arch["runs"]:
            if not np.isfinite(row["final_loss"]):
                row["final_loss"] = None
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


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


RENDERERS = {"csv": render_csv, "json": render_json, "md": render_markdown}


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _per_experiment(defaults: dict) -> str:
    return ", ".join(f"{value} for {experiment}" for experiment, value in defaults.items())


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
    parser.add_argument("--arch", default="both", choices=("conv", "dense", "both"), help="architecture(s) to run (default %(default)s)")
    parser.add_argument("--runs", type=int, default=ExperimentSpec.runs, help="number of seeded runs per architecture (default %(default)s)")
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="training epochs per run (default %(default)s)")
    parser.add_argument("--lr", type=float, default=None, help=f"learning rate (default {_per_experiment(DEFAULT_LEARNING_RATES)})")
    parser.add_argument("--seed", type=int, default=ExperimentSpec.master_seed, help="master seed (default %(default)s)")
    parser.add_argument("--max-restarts", type=int, default=None, help=f"restart budget per run below 100%% training accuracy (default {_per_experiment(DEFAULT_MAX_RESTARTS)})")
    parser.add_argument("--format", default="md", choices=tuple(RENDERERS), help="report format (default %(default)s)")
    parser.add_argument("--out", default=None, metavar="PATH", help="report destination (default stdout)")
    parser.add_argument("--export-dataset", default=None, metavar="PATH", help="also write the experiment's dataset as CSV")
    args = parser.parse_args(argv)

    try:
        spec = ExperimentSpec(
            experiment=args.experiment,
            architectures=ARCHITECTURES if args.arch == "both" else (args.arch,),
            runs=args.runs,
            master_seed=args.seed,
        )
        # a flag left out keeps the experiment's default; replace re-validates
        given = {"epochs": args.epochs, "learning_rate": args.lr, "max_restarts": args.max_restarts}
        spec.train = replace(resolved_train_config(spec), **{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        parser.error(str(exc))
    return spec, args


def main(argv=None) -> int:
    spec, args = parse_cli(argv)
    try:
        if args.export_dataset is not None:
            _write_text(dataset_to_csv(make_dataset(spec.experiment)), args.export_dataset)
        report = run_experiment(spec)
        _write_text(RENDERERS[args.format](report), args.out)
    except OSError as exc:
        target = getattr(exc, "filename", None) or args.out or args.export_dataset
        print(f"symnet: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
