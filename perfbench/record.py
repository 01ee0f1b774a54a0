"""Records the reference digests that the benchmark's output check uses.

    python3 perfbench/record.py

For each report shape the workloads use, runs every master seed of its pool
once, serially, and stores the SHA-256 of the CSV report in
``references.json``.  It refuses to write if a report breaks the PAPER.md
accuracy bands.  Re-record only when report bytes are meant to change,
which for this program is never: a change that alters one byte of a report
is a regression, and the check exists to catch it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import bench  # noqa: E402

# master seeds 0 .. n-1 per report shape; a run cycles through its pool, and
# small pools keep the work of a partial last pass close to the mean
POOL_SIZES = {
    "identity/dense+conv/runs=4": 4,
    "rule/dense+conv/runs=4": 4,
    "identity/conv/runs=1": 16,
}


def main() -> int:
    shapes = {w.reference_key: w for w in bench.WORKLOADS.values()}
    if set(shapes) != set(POOL_SIZES):
        raise SystemExit(f"pool sizes {sorted(POOL_SIZES)} do not match workload shapes {sorted(shapes)}")
    references = {}
    for key, workload in shapes.items():
        digests = {}
        rule_dense_tests = []
        for master_seed in range(POOL_SIZES[key]):
            report, text = bench.make_report(workload, master_seed, 1)
            if not bench.bands_hold(report):
                raise SystemExit(f"{key} master seed {master_seed}: report breaks the accuracy bands")
            digests[str(master_seed)] = bench.report_digest(text)
            rule_dense_tests += [r.test_accuracy for a in report.architectures if a.architecture == "dense" and report.experiment == "rule" for r in a.runs]
        if rule_dense_tests:
            mean = statistics.fmean(rule_dense_tests)
            low, high = bench.RULE_DENSE_TEST_BAND
            if not low <= mean <= high:
                raise SystemExit(f"{key}: rule/dense test mean {mean} is outside {bench.RULE_DENSE_TEST_BAND}")
        references[key] = digests
        print(f"{key}: {len(digests)} master seeds", flush=True)
    bench.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
