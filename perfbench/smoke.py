"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload, untraced and traced, on a one-report pool, and fails
unless every metric named in BENCHMARK.json is emitted with its unit, the
current program passes the output check, a corrupted reference digest
makes every run fail, the command line prints the result object last, and
a directory holding only the benchmark makes it exit non-zero without a
result.  Takes about a minute on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402

TINY_SECONDS = 0.01  # the loops still time their minimum number of reports


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def one_seed_pools(references: dict) -> dict:
    return {key: {seed: digests[seed]} for key, digests in references.items() for seed in [min(digests, key=int)]}


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    for metric in declared:
        emitted = result["metrics"].get(metric["name"])
        check(emitted is not None, f"{where}: {metric['name']} not emitted")
        check(emitted["unit"] == metric["unit"], f"{where}: {metric['name']} unit {emitted['unit']!r}, declared {metric['unit']!r}")
        check(isinstance(emitted["value"], float), f"{where}: {metric['name']} value {emitted['value']!r} is not a float")
    check(len(result["metrics"]) == len(declared), f"{where}: emits metrics BENCHMARK.json does not declare")


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(sorted(w["name"] for w in config["workloads"]) == sorted(bench.WORKLOADS), "workloads differ from BENCHMARK.json")
    tiny = one_seed_pools(bench.load_references())

    for name in bench.WORKLOADS:
        for trace, declared in ((False, config["end_to_end"]), (True, config["per_layer"])):
            where = f"{name} trace={int(trace)}"
            result = bench.run_workload(name, seed=1, seconds=TINY_SECONDS, trace=trace, references=tiny)
            check_metrics(result, declared, where)
            tally = result["tally"]
            check(tally.attempted > 0 and tally.failed == 0, f"{where}: {tally.failed} of {tally.attempted} runs failed the output check")
            print(f"smoke: {where}: {len(declared)} metrics, {tally.attempted} runs checked", flush=True)

        key = bench.WORKLOADS[name].reference_key
        corrupted = {k: dict(v) for k, v in tiny.items()}
        seed = next(iter(corrupted[key]))
        corrupted[key][seed] = "0" * 64
        result = bench.run_workload(name, seed=1, seconds=TINY_SECONDS, trace=False, references=corrupted)
        ratio = result["extra"]["failed_ratio"]
        check(ratio == 1.0, f"{name}: a corrupted digest left failed_ratio at {ratio}")
        print(f"smoke: {name}: corrupted digest gives failed_ratio {ratio}", flush=True)

    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "single-run", "--seed", "2", "--seconds", str(TINY_SECONDS), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    check(completed.returncode == 0, f"run.py exited with code {completed.returncode}")
    line = json.loads(completed.stdout.splitlines()[-1])
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(line)}")
    check(line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, f"result {line}")

    bare = bench.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run([sys.executable] + [str(bare / BENCH_DIR.name / "run.py")] + command[3:], cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    shutil.rmtree(bare)
    check(completed.returncode != 0, "run.py succeeded in a directory without the program")
    check('"correct"' not in completed.stdout, "run.py printed a result without the program")
    print("smoke: command line prints the result last; a bare benchmark directory exits non-zero")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
