"""Run one workload of the symnet benchmark, or all of them.

    python3 perfbench/run.py --workload identity-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give each metric with its unit and sample count, and the host facts;
the full result is also written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _import_bench():
    """Imports the benchmark against the package under ``src/``, refusing
    any other copy of it that happens to be importable."""
    if not (SRC / "symnet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no symnet package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import symnet

    if Path(symnet.__file__).resolve().parent != (SRC / "symnet").resolve():
        raise SystemExit(f"perfbench: imported symnet from {symnet.__file__}, not from {SRC}")
    import bench

    return bench


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _print_summary(result: dict) -> None:
    tally = result["tally"]
    print(f"workload {result['workload']['name']}: {result['workload']['why']}")
    print("host " + json.dumps(result["host"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:6s} n={result['samples'][name]}")
    print(f"  {'failed_ratio':44s} {result['extra']['failed_ratio']:14.6g} {'ratio':6s} n={tally.attempted}")


def _run_all(seed: int, seconds: float) -> int:
    """Runs every workload untraced, each in its own interpreter."""
    bench = _import_bench()
    correct = True
    for name in bench.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        completed = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"workload {name} exited with code {completed.returncode}", file=sys.stderr)
            return 1
        correct = correct and json.loads(lines[-1])["correct"]
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description="symnet benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all' for every workload untraced")
    parser.add_argument("--seed", type=_non_negative_int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=_positive_float, default=30.0, help="measured seconds per run (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced per-layer run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args.seed, args.seconds)

    bench = _import_bench()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(bench.WORKLOADS)} or 'all'")
    trace = bool(args.trace)
    result = bench.run_workload(args.workload, args.seed, args.seconds, trace)
    _print_summary(result)
    print(f"result written to {bench.write_out(result, args.seed, trace)}")
    tally = result["tally"]
    line = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
