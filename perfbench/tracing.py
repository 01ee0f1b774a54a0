"""In-memory spans around the public calls of each symnet layer.

Tracing is installed from outside the program: ``Tracer.installed()``
replaces the public functions and methods of ``symnet.harness``,
``training``, ``layers``, ``ndcore`` and ``tasks`` with wrappers that record
one span per call (name, start, end, parent span, run id) and restores the
originals on exit, so untraced measurements run the unmodified code.

Pool workers are forked from a traced parent and record spans too; the
``execute_run`` wrapper ships a worker's spans back to the parent on the
returned ``RunReport`` and ``Tracer.collect_worker_spans`` merges them.
``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
parent and worker spans share one time base.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

from symnet import harness, layers, training

_SHIPPED = "_perfbench_spans"

STAGE_CLASSES = ("DenseLayer", "Conv1DLayer", "GlobalMaxPool", "Sigmoid", "Softmax", "Reshape", "Transpose")
PLUMBING = ("layers.Reshape.", "layers.Transpose.")


def _targets():
    """(owner, attribute, span name) for every wrapped call site.

    Functions imported by name into another module are patched where they
    are looked up, so one function can appear under several owners.
    """
    targets = [
        (harness, "execute_run", "harness.execute_run"),
        (harness, "build_network", "harness.build_network"),
        (harness, "derive_seed", "ndcore.derive_seed"),
        (harness, "make_dataset", "tasks.make_dataset"),
        (harness, "train", "training.train"),
        (harness, "evaluate", "training.evaluate"),
        (training, "evaluate", "training.evaluate"),
        (training, "gd_step", "training.gd_step"),
        (training.Network, "forward_pass", "training.forward_pass"),
        (training.Network, "backward_pass", "training.backward_pass"),
        (layers, "init_uniform", "ndcore.init_uniform"),
    ]
    for class_name in STAGE_CLASSES:
        cls = getattr(layers, class_name)
        for method in ("forward", "backward"):
            if method in vars(cls):
                targets.append((cls, method, f"layers.{class_name}.{method}"))
    return targets


class Tracer:
    """Span store: parallel lists indexed by span id."""

    def __init__(self):
        self.pid = os.getpid()
        self.run_id = -1
        self.report_no = 0
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.run_ids: list[int] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.run_ids.append(self.run_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def _wrap_execute_run(self, fn):
        traced = self._wrap(fn, "harness.execute_run")

        @functools.wraps(fn)
        def run_scope(experiment, architecture, run_index, *rest, **kwargs):
            previous = self.run_id
            arch_no = harness.ARCHITECTURES.index(architecture)
            self.run_id = (self.report_no * len(harness.ARCHITECTURES) + arch_no) * 100_000 + run_index
            in_worker = os.getpid() != self.pid
            if in_worker:
                self.reset()
            try:
                report = traced(experiment, architecture, run_index, *rest, **kwargs)
            finally:
                self.run_id = previous
            if in_worker:
                setattr(report, _SHIPPED, (self.names, self.starts, self.ends, self.parents, self.run_ids))
                self.reset()
            return report

        return run_scope

    @contextmanager
    def installed(self):
        """Wraps every target for the duration of the block."""
        saved = []
        saved_losses = dict(training.LOSSES)
        wrapped = {}
        try:
            for owner, attr, name in _targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if original not in wrapped:
                    if name == "harness.execute_run":
                        wrapped[original] = self._wrap_execute_run(original)
                    else:
                        wrapped[original] = self._wrap(original, name)
                setattr(owner, attr, wrapped[original])
            for key, fn in saved_losses.items():
                training.LOSSES[key] = self._wrap(fn, "training.loss")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            training.LOSSES.update(saved_losses)

    def collect_worker_spans(self, report, parent: int) -> None:
        """Moves spans shipped back by pool workers into this store, under
        the span ``parent``, and strips them from the report rows."""
        for arch in report.architectures:
            for row in arch.runs:
                shipped = row.__dict__.pop(_SHIPPED, None)
                if shipped is None:
                    continue
                names, starts, ends, parents, run_ids = shipped
                base = len(self.names)
                self.names.extend(names)
                self.starts.extend(starts)
                self.ends.extend(ends)
                self.parents.extend(parent if p < 0 else base + p for p in parents)
                self.run_ids.extend(run_ids)

    def spans(self):
        """Yields each span as a dict, for writing out."""
        for i, name in enumerate(self.names):
            yield {
                "id": i,
                "name": name,
                "start": self.starts[i],
                "end": self.ends[i],
                "parent": self.parents[i],
                "run_id": self.run_ids[i],
            }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTotals:
    """Per-name call counts, total and self seconds, folded in one report
    at a time so a long traced run does not hold every span."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.stage_calls = 0  # stage calls made directly by forward_pass / backward_pass
        self.plumbing_calls = 0  # Reshape/Transpose calls not nested in another one
        self.plumbing_total = 0.0
        self.work = 0.0  # summed self time of every span, across processes
        self.report_wall = 0.0
        self.covered = 0.0

    def fold(self, tracer: Tracer, root: int) -> None:
        """Adds the spans of one report, whose outermost span is ``root``."""
        names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
        children: dict[int, list[tuple[float, float]]] = {}
        for i, parent in enumerate(parents):
            if parent >= 0:
                children.setdefault(parent, []).append((starts[i], ends[i]))
        run_experiment = None
        for i, name in enumerate(names):
            duration = ends[i] - starts[i]
            own = duration - _union_length(children.get(i, []))
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + own
            self.work += own
            parent_name = names[parents[i]] if parents[i] >= 0 else ""
            if name.startswith("layers.") and parent_name in ("training.forward_pass", "training.backward_pass"):
                self.stage_calls += 1
            if name.startswith(PLUMBING) and not parent_name.startswith(PLUMBING):
                self.plumbing_calls += 1
                self.plumbing_total += duration
            if name == "harness.run_experiment" and parents[i] == root:
                run_experiment = i
        self.report_wall += ends[root] - starts[root]
        below = [(starts[i], ends[i]) for i, p in enumerate(parents) if p == run_experiment]
        below += [(starts[i], ends[i]) for i, n in enumerate(names) if n == "harness.render_csv" and parents[i] == root]
        self.covered += _union_length(below)

    def per_call(self, name: str, scale: float, own: bool = False) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        source = self.self_time if own else self.total
        return scale * source[name] / calls

    def share(self, names) -> float:
        return sum(self.self_time.get(n, 0.0) for n in names) / self.work if self.work else 0.0
