"""Workloads, output check and measurement loops of the symnet benchmark.

Every workload is a closed loop with one caller: build an ExperimentSpec,
call ``run_experiment``, render the CSV report, and only then start the
next report.  Reports draw their master seeds from a fixed pool per report
shape, visited in an order shuffled by the workload seed, because the
output check compares each report's bytes with digests recorded for
exactly those master seeds (``references.json``, written by ``record.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from symnet.harness import ExperimentSpec, render_csv, run_experiment

from tracing import SpanTotals, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
REFERENCES = BENCH_DIR / "references.json"

SETUP_PROBES = 5
RULE_DENSE_TEST_BAND = (0.25, 0.75)  # chance level, over all rule/dense runs of one benchmark run

# A fresh interpreter that imports the package, builds both datasets and one
# network per cell, then says it is ready.
SETUP_CHILD = """
from symnet.harness import ARCHITECTURES, EXPERIMENTS, build_network, make_dataset
from symnet.ndcore import SeededRng
for experiment in EXPERIMENTS:
    make_dataset(experiment)
    for architecture in ARCHITECTURES:
        build_network(experiment, architecture, SeededRng(0))
print("ready", flush=True)
"""


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    architectures: tuple[str, ...]
    runs: int  # seeded runs per architecture in one report
    workers: int
    why: str

    @property
    def reference_key(self) -> str:
        return f"{self.experiment}/{'+'.join(self.architectures)}/runs={self.runs}"

    def spec(self, master_seed: int) -> ExperimentSpec:
        return ExperimentSpec(self.experiment, self.architectures, runs=self.runs, master_seed=master_seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identity-batch", "identity", ("dense", "conv"), 4, 1,
            "conv zero_same padding, tap loops and Sigmoid; no restarts, little BLAS",
        ),
        Workload(
            "rule-batch", "rule", ("dense", "conv"), 4, 1,
            "dense BLAS, max pool, softmax cross-entropy, restarts; bypasses np.pad and Sigmoid",
        ),
        Workload(
            "single-run", "identity", ("conv",), 1, 1,
            "one identity/conv run per call: per-call fixed costs, nothing to batch",
        ),
        Workload(
            "identity-pool2", "identity", ("dense", "conv"), 4, 2,
            "identity-batch through the 2-worker process pool: fork, pickling, sharding",
        ),
    )
}

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "report_ms_p50": "ms",
    "report_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_references(path: Path = REFERENCES) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text(encoding="utf-8"))


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pool(references: dict, workload: Workload) -> list[int]:
    return sorted(int(s) for s in references[workload.reference_key])


def master_seeds(references: dict, workload: Workload, seed: int):
    """Yields master seeds pass after pass over the pool, each pass in an
    order drawn from the workload seed, so any run of whole passes does the
    same work whatever the seed."""
    seeds = pool(references, workload)
    rng = random.Random(seed)
    while True:
        yield from rng.sample(seeds, len(seeds))


def make_report(workload: Workload, master_seed: int, workers: int):
    report = run_experiment(workload.spec(master_seed), workers=workers)
    return report, render_csv(report)


def bands_hold(report) -> bool:
    """The per-report part of the PAPER.md accuracy table: every conv cell
    and every training accuracy at 1.0, identity/dense below 0.5 on test."""
    for arch in report.architectures:
        if arch.failed_runs or arch.mean_train_accuracy != 1.0:
            return False
        if arch.architecture == "conv" and arch.mean_test_accuracy != 1.0:
            return False
        if report.experiment == "identity" and arch.architecture == "dense" and not arch.mean_test_accuracy < 0.5:
            return False
    return True


class Tally:
    """Attempted and failed seeded runs, judged one report at a time."""

    def __init__(self, workload: Workload, references: dict):
        self.digests = references[workload.reference_key]
        self.attempted = 0
        self.failed = 0
        self.rule_reports: list[int] = []  # runs per checked rule report
        self.rule_dense_tests: list[float] = []

    def check(self, master_seed: int, report, text: str) -> bool:
        runs = sum(len(a.runs) for a in report.architectures)
        ok = self.digests.get(str(master_seed)) == report_digest(text) and bands_hold(report)
        self.attempted += runs
        if not ok:
            self.failed += runs
        elif report.experiment == "rule":
            self.rule_reports.append(runs)
            for arch in report.architectures:
                if arch.architecture == "dense":
                    self.rule_dense_tests.extend(r.test_accuracy for r in arch.runs)
        return ok

    def finish(self) -> None:
        """Applies the run-level band: rule/dense sits at chance on test.
        Outside it, every rule report that passed so far counts as failed."""
        if self.rule_dense_tests:
            mean = statistics.fmean(self.rule_dense_tests)
            low, high = RULE_DENSE_TEST_BAND
            if not low <= mean <= high:
                self.failed += sum(self.rule_reports)
        self.rule_reports.clear()
        self.rule_dense_tests.clear()


def host_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {name: os.environ.get(name, "unset") for name in thread_vars},
        "workload_seed": seed,
    }


def _peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def measure_setup(probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from starting a fresh interpreter to it reporting ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(ready - start)
    return times


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _warm_up(workload: Workload, references: dict, tally: Tally) -> None:
    """One report before timing starts, so lazy set-up is not timed; it is
    still checked."""
    master_seed = pool(references, workload)[0]
    report, text = make_report(workload, master_seed, workload.workers)
    tally.check(master_seed, report, text)


def _more(start: float, seconds: float, walls: list[float], minimum: int) -> bool:
    """True while another report, as long as the median one so far, would
    end before the deadline."""
    if len(walls) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def measure(workload: Workload, seed: int, seconds: float, references: dict) -> dict:
    """The untraced run: end-to-end metrics."""
    tally = Tally(workload, references)
    _warm_up(workload, references, tally)

    walls: list[float] = []
    passed_runs = 0
    seeds = master_seeds(references, workload, seed)
    start = time.perf_counter()
    while _more(start, seconds, walls, 2):
        master_seed = next(seeds)
        t0 = time.perf_counter()
        report, text = make_report(workload, master_seed, workload.workers)
        walls.append(time.perf_counter() - t0)
        if tally.check(master_seed, report, text):
            passed_runs += sum(len(a.runs) for a in report.architectures)
    tally.finish()
    peak = _peak_rss_mb(include_children=workload.workers > 1)  # before the set-up probes add children
    setup = measure_setup()

    values = {
        "runs_per_s": passed_runs / sum(walls),
        "report_ms_p50": 1e3 * statistics.median(walls),
        "report_ms_p90": 1e3 * _p90(walls),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup),
    }
    samples = {
        "runs_per_s": len(walls),
        "report_ms_p50": len(walls),
        "report_ms_p90": len(walls),
        "peak_rss_mb": 1,
        "setup_s": len(setup),
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}
    return {
        "tally": tally,
        "metrics": metrics,
        "samples": samples,
        "extra": {"failed_ratio": tally.failed / tally.attempted, "timed_seconds": sum(walls)},
    }


LAYER_METRICS = {
    "layers.Conv1DLayer.forward.us_per_call": "us",
    "layers.Conv1DLayer.backward.us_per_call": "us",
    "layers.Conv1DLayer.share": "ratio",
    "layers.DenseLayer.forward.us_per_call": "us",
    "layers.DenseLayer.backward.us_per_call": "us",
    "layers.DenseLayer.share": "ratio",
    "layers.GlobalMaxPool.forward.us_per_call": "us",
    "layers.GlobalMaxPool.backward.us_per_call": "us",
    "layers.Softmax.forward.us_per_call": "us",
    "layers.Sigmoid.forward.us_per_call": "us",
    "layers.Sigmoid.backward.us_per_call": "us",
    "layers.plumbing.us_per_call": "us",
    "layers.calls_per_epoch": "count",
    "training.loss.us_per_call": "us",
    "training.forward_pass.self_us": "us",
    "training.backward_pass.self_us": "us",
    "training.gd_step.us_per_call": "us",
    "training.evaluate.us_per_call": "us",
    "training.train.self_share": "ratio",
    "training.epochs": "count",
    "training.attempts": "count",
    "training.useful_attempt_ratio": "ratio",
    "ndcore.init_uniform.ms": "ms",
    "ndcore.derive_seed.us_per_call": "us",
    "tasks.make_dataset.calls_per_run": "count",
    "tasks.make_dataset.ms": "ms",
    "harness.build_network.us_per_call": "us",
    "harness.run_experiment.self_ms": "ms",
    "harness.render_csv.ms": "ms",
    "harness.pool.efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


class ExactCounts:
    """Counts over the first pass of the traced run, which covers the whole
    pool, so they repeat exactly between runs."""

    def __init__(self):
        self.runs = self.attempts = self.reached = 0
        self.epochs = self.stage_calls = self.datasets = 0

    def add(self, report, tracer: Tracer) -> None:
        for arch in report.architectures:
            for row in arch.runs:
                self.runs += 1
                self.attempts += row.restarts + 1
                self.reached += not row.failed
        self.epochs += tracer.names.count("training.gd_step")
        self.datasets += tracer.names.count("tasks.make_dataset")
        stage_parents = {i for i, n in enumerate(tracer.names) if n in ("training.forward_pass", "training.backward_pass")}
        self.stage_calls += sum(1 for n, p in zip(tracer.names, tracer.parents) if p in stage_parents and n.startswith("layers."))


def _traced_report(workload: Workload, master_seed: int, tracer: Tracer) -> tuple:
    tracer.reset()
    with tracer.installed():
        with tracer.span("report") as root:
            with tracer.span("harness.run_experiment") as experiment_span:
                report = run_experiment(workload.spec(master_seed), workers=workload.workers)
            with tracer.span("harness.render_csv"):
                text = render_csv(report)
    tracer.collect_worker_spans(report, experiment_span)
    return report, text, root


def _timed(workload: Workload, master_seed: int, workers: int, tally: Tally) -> float:
    t0 = time.perf_counter()
    report, text = make_report(workload, master_seed, workers)
    wall = time.perf_counter() - t0
    tally.check(master_seed, report, text)
    return wall


def measure_traced(workload: Workload, seed: int, seconds: float, references: dict) -> dict:
    """The traced run: per-layer metrics.  Each report runs untraced, then
    traced, with the same master seed; the pooled workload also runs it
    serially, for the pool's efficiency."""
    tally = Tally(workload, references)
    _warm_up(workload, references, tally)

    tracer = Tracer()
    totals = SpanTotals()
    exact = ExactCounts()
    overhead: list[float] = []
    efficiency: list[float] = []
    first_spans: list[dict] = []
    walls: list[float] = []
    first_pass = len(pool(references, workload))
    seeds = master_seeds(references, workload, seed)
    start = time.perf_counter()
    while _more(start, seconds, walls, first_pass):
        t_loop = time.perf_counter()
        master_seed = next(seeds)
        if workload.workers > 1:
            serial = _timed(workload, master_seed, 1, tally)
        untraced = _timed(workload, master_seed, workload.workers, tally)
        tracer.report_no = len(walls)
        report, text, root = _traced_report(workload, master_seed, tracer)
        tally.check(master_seed, report, text)
        overhead.append((tracer.ends[root] - tracer.starts[root]) / untraced)
        if workload.workers > 1:
            efficiency.append(serial / (workload.workers * untraced))
        totals.fold(tracer, root)
        if len(walls) < first_pass:
            exact.add(report, tracer)
        if not first_spans:
            first_spans = list(tracer.spans())
        walls.append(time.perf_counter() - t_loop)
    tally.finish()

    us, ms = 1e6, 1e3
    forward, backward = "training.forward_pass", "training.backward_pass"
    values = {
        "layers.Conv1DLayer.forward.us_per_call": totals.per_call("layers.Conv1DLayer.forward", us),
        "layers.Conv1DLayer.backward.us_per_call": totals.per_call("layers.Conv1DLayer.backward", us),
        "layers.Conv1DLayer.share": totals.share(("layers.Conv1DLayer.forward", "layers.Conv1DLayer.backward")),
        "layers.DenseLayer.forward.us_per_call": totals.per_call("layers.DenseLayer.forward", us),
        "layers.DenseLayer.backward.us_per_call": totals.per_call("layers.DenseLayer.backward", us),
        "layers.DenseLayer.share": totals.share(("layers.DenseLayer.forward", "layers.DenseLayer.backward")),
        "layers.GlobalMaxPool.forward.us_per_call": totals.per_call("layers.GlobalMaxPool.forward", us),
        "layers.GlobalMaxPool.backward.us_per_call": totals.per_call("layers.GlobalMaxPool.backward", us),
        "layers.Softmax.forward.us_per_call": totals.per_call("layers.Softmax.forward", us),
        "layers.Sigmoid.forward.us_per_call": totals.per_call("layers.Sigmoid.forward", us),
        "layers.Sigmoid.backward.us_per_call": totals.per_call("layers.Sigmoid.backward", us),
        "layers.plumbing.us_per_call": us * totals.plumbing_total / totals.plumbing_calls if totals.plumbing_calls else 0.0,
        "layers.calls_per_epoch": exact.stage_calls / exact.epochs,
        "training.loss.us_per_call": totals.per_call("training.loss", us),
        "training.forward_pass.self_us": totals.per_call(forward, us, own=True),
        "training.backward_pass.self_us": totals.per_call(backward, us, own=True),
        "training.gd_step.us_per_call": totals.per_call("training.gd_step", us),
        "training.evaluate.us_per_call": totals.per_call("training.evaluate", us),
        "training.train.self_share": totals.share(("training.train",)),
        "training.epochs": exact.epochs / exact.runs,
        "training.attempts": exact.attempts / exact.runs,
        "training.useful_attempt_ratio": exact.reached / exact.attempts,
        "ndcore.init_uniform.ms": totals.per_call("ndcore.init_uniform", ms),
        "ndcore.derive_seed.us_per_call": totals.per_call("ndcore.derive_seed", us),
        "tasks.make_dataset.calls_per_run": exact.datasets / exact.runs,
        "tasks.make_dataset.ms": totals.per_call("tasks.make_dataset", ms),
        "harness.build_network.us_per_call": totals.per_call("harness.build_network", us),
        "harness.run_experiment.self_ms": totals.per_call("harness.run_experiment", ms, own=True),
        "harness.render_csv.ms": totals.per_call("harness.render_csv", ms),
        "harness.pool.efficiency": statistics.median(efficiency) if efficiency else 0.0,
        "trace.overhead_ratio": statistics.median(overhead),
        "trace.coverage": totals.covered / totals.report_wall,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    return {
        "tally": tally,
        "metrics": metrics,
        "samples": {name: len(overhead) for name in LAYER_METRICS},
        "extra": {"failed_ratio": tally.failed / tally.attempted, "span_calls": dict(totals.calls)},
        "spans": first_spans,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, references: dict | None = None) -> dict:
    """One benchmark run.  ``references`` defaults to the recorded digests;
    a smaller pool makes a smaller run."""
    workload = WORKLOADS[name]
    references = load_references() if references is None else references
    measure_fn = measure_traced if trace else measure
    result = measure_fn(workload, seed, seconds, references)
    result["host"] = host_facts(seed)
    result["workload"] = {"name": workload.name, "why": workload.why, "reference_key": workload.reference_key}
    return result


def write_out(result: dict, seed: int, trace: bool) -> Path:
    """Writes the full result, and any spans kept, under OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']['name']}-seed{seed}-trace{int(trace)}"
    tally = result["tally"]
    payload = {
        "host": result["host"],
        "workload": result["workload"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
        "samples": result["samples"],
        "extra": result["extra"],
    }
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    if result.get("spans"):
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in result["spans"]:
                handle.write(json.dumps(span) + "\n")
    return path
