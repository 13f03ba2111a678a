"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each layer (named after the
``src/repro`` modules) for the duration of a traced phase and restores them
afterwards; the program itself is unchanged.  Every call records a span
(entry point, start, end, parent span) in memory.  A layer's *self time* is
its spans' durations minus the part their child spans cover.

Class methods are wrapped on the defining class and on every subclass that
overrides them.  A module-level function is also rebound in every ``repro``
module that imported it by name (``from .selection import best_move``);
:func:`coverage_gaps` checks that each entry point a workload is meant to
exercise really recorded calls, so a patch point that silently stops
catching calls fails the check instead of reading as zero time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

#: ``(layer, module, class or None for module functions, entry points)``.
LAYER_SPECS: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("problems", "repro.problems.base", "BinaryProblem", (
        "evaluate", "evaluate_batch", "evaluate_neighborhood",
        "evaluate_neighborhood_batch", "delta_evaluate", "random_solution",
    )),
    ("problems", "repro.problems.ppp", "PermutedPerceptronProblem", ("generate",)),
    ("problems.engine", "repro.problems.incremental", "GainEngine", (
        "expect", "commit", "try_evaluate", "invalidate_all",
    )),
    ("core.evaluators", "repro.core.evaluators", "NeighborhoodEvaluator", (
        "evaluate", "evaluate_many", "evaluate_resident", "apply_deltas",
        "fetch_fitnesses", "rebalance_resident", "begin_search", "end_search",
    )),
    ("core.selection", "repro.core.selection", None, (
        "best_move", "best_admissible_move", "first_improving_move",
    )),
    ("gpu.runtime", "repro.gpu.runtime", "GPUContext", (
        "launch", "launch_async", "copy_async", "download_async", "copy_peer_async",
        "reduce_async", "synchronize", "to_device", "to_host",
    )),
    ("gpu.streams", "repro.gpu.streams", "Stream", ("schedule",)),
    ("gpu.interconnect", "repro.gpu.interconnect", "TransferEngine", (
        "transfer", "transfer_batch", "peer_transfer",
    )),
    ("localsearch", "repro.localsearch.base", "NeighborhoodLocalSearch", ("run",)),
    ("localsearch", "repro.localsearch.multistart", "MultiStartRunner", ("run",)),
    ("service.runner", "repro.service.continuous", "ContinuousRunner", (
        "open", "close", "step", "attach", "detach", "suspend", "resume",
    )),
    ("service", "repro.service.server", "SolveServer", ("run_trace",)),
    ("service", "repro.service.server", None, ("calibrate_step_time",)),
    ("harness", "repro.harness.experiment", None, ("run_ppp_experiment",)),
    ("mappings", "repro.mappings", None, ("mapping_for",)),
    ("mappings", "repro.mappings.base", "MoveMapping", (
        "all_moves", "from_flat_batch", "to_flat_batch", "from_flat", "to_flat",
    )),
)

LAYERS = tuple(dict.fromkeys(spec[0] for spec in LAYER_SPECS))

#: Evaluator entry points that start one search step when a runner calls them.
STEP_ENTRIES = ("evaluate", "evaluate_many", "evaluate_resident")


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        klass = todo.pop()
        if klass not in seen:
            seen.append(klass)
            todo.extend(klass.__subclasses__())
    return seen


@dataclass
class Phase:
    """A contiguous range of spans recorded under one name (setup, pass)."""

    name: str
    first: int
    last: int
    wall_ns: int
    #: Entry-point counters (:attr:`Tracer.counts`) taken during the phase.
    counts: dict


class Tracer:
    """In-memory span recorder over the layers' public entry points."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: Entry points: ``(layer, qualified name)``; spans store the index.
        self.entries: list[tuple[str, str]] = []
        self._entry_ids: dict[tuple[str, str], int] = {}
        self.span_entry: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.phases: list[Phase] = []
        #: Engine evaluations served (not declined), engine rows re-derived,
        #: and transfers priced, counted at the entry points.
        self.counts: dict[str, int] = defaultdict(int)

    # -- patching ----------------------------------------------------------
    def _entry(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._entry_ids:
            self._entry_ids[key] = len(self.entries)
            self.entries.append(key)
        return self._entry_ids[key]

    def _wrap(self, fn, entry: int, hook=None):
        spans_entry, spans_start = self.span_entry, self.span_start
        spans_end, spans_parent = self.span_end, self.span_parent
        stack, clock = self._stack, time.perf_counter_ns
        before, after = hook if hook is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            index = len(spans_entry)
            spans_entry.append(entry)
            spans_parent.append(stack[-1] if stack else -1)
            spans_start.append(0)
            spans_end.append(0)
            stack.append(index)
            spans_start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def _hook(self, qualname: str):
        """Counters taken at an entry point: ``(before(args), after(args, result, token))``."""
        counts = self.counts
        if qualname == "GainEngine.try_evaluate":
            def after(args, result, reinit_before):
                counts["engine_served"] += result is not None
                counts["engine_reinit_rows"] += args[0].stats["reinit_rows"] - reinit_before
            return (lambda args: args[0].stats["reinit_rows"]), after
        if qualname == "TransferEngine.transfer_batch":
            def after(args, result, token):
                counts["transfers"] += len(result)
            return None, after
        return None

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYER_SPECS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, module_name, class_name, names in LAYER_SPECS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for name in names:
                    original = getattr(module, name)
                    wrapped = self._wrap(original, self._entry(layer, name))
                    for mod in list(sys.modules.values()):
                        if not getattr(mod, "__name__", "").startswith("repro"):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, attr, wrapped)
                continue
            for klass in _subclasses(getattr(module, class_name)):
                for name in names:
                    raw = klass.__dict__.get(name)
                    if raw is None:
                        continue
                    qualname = f"{klass.__name__}.{name}"
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(
                            self._wrap(raw.__func__, self._entry(layer, qualname))
                        )
                    else:
                        wrapped = self._wrap(
                            raw, self._entry(layer, qualname), self._hook(qualname)
                        )
                    self._set(klass, name, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def trace(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one phase with the entry points wrapped."""
        self.counts.clear()
        self.install()
        first = len(self.span_entry)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter_ns() - start
            self.uninstall()
            self.phases.append(
                Phase(name, first, len(self.span_entry), wall, dict(self.counts))
            )

    # -- analysis ----------------------------------------------------------
    def _arrays(self):
        entry = np.asarray(self.span_entry, dtype=np.int64)
        start = np.asarray(self.span_start, dtype=np.int64)
        end = np.asarray(self.span_end, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=entry.size)
        return entry, start, end, parent, duration, duration - child

    def layer_table(self) -> dict:
        """Per phase and layer: self seconds, calls, and per entry point."""
        entry, _, _, parent, duration, self_ns = self._arrays()
        table = {}
        for phase in self.phases:
            window = slice(phase.first, phase.last)
            ids = entry[window]
            per_entry_self = np.bincount(ids, weights=self_ns[window], minlength=len(self.entries))
            per_entry_calls = np.bincount(ids, minlength=len(self.entries))
            top = parent[window] < 0
            covered = float(duration[window][top].sum())
            layers = {
                layer: {"self_s": 0.0, "calls": 0, "entries": {}} for layer in LAYERS
            }
            for index, (layer, name) in enumerate(self.entries):
                calls = int(per_entry_calls[index])
                if not calls:
                    continue
                bucket = layers[layer]
                self_s = float(per_entry_self[index]) / 1e9
                bucket["self_s"] += self_s
                bucket["calls"] += calls
                bucket["entries"][name] = {"self_s": self_s, "calls": calls}
            table[phase.name] = {
                "wall_s": phase.wall_ns / 1e9,
                "traced_s": covered / 1e9,
                "counts": phase.counts,
                "layers": layers,
            }
        return table

    def step_times_ms(self, phase_name: str) -> list[float]:
        """Host milliseconds per search step inside the runners of a phase.

        A step starts where a runner (``localsearch`` run or
        ``ContinuousRunner.step``) calls the evaluator's neighborhood
        evaluation and ends where the next one starts, or where the runner
        call returns.  ``ContinuousRunner.step`` spans are whole steps.
        """
        phase = next(p for p in self.phases if p.name == phase_name)
        entry, start, end, parent, _, _ = self._arrays()
        runner_kinds = {}
        for index, (layer, name) in enumerate(self.entries):
            if layer == "localsearch":
                runner_kinds[index] = "run"
            elif name == "ContinuousRunner.step":
                runner_kinds[index] = "step"
        step_entries = {
            index
            for index, (layer, name) in enumerate(self.entries)
            if layer == "core.evaluators" and name.rsplit(".", 1)[1] in STEP_ENTRIES
        }
        markers: dict[int, list[int]] = defaultdict(list)
        times = []
        for span in range(phase.first, phase.last):
            kind = runner_kinds.get(int(entry[span]))
            if kind == "step":
                times.append((end[span] - start[span]) / 1e6)
            owner = int(parent[span])
            if (
                int(entry[span]) in step_entries
                and owner >= 0
                and runner_kinds.get(int(entry[owner])) == "run"
            ):
                markers[owner].append(int(start[span]))
        for owner, starts in markers.items():
            bounds = starts + [int(end[owner])]
            times.extend((b - a) / 1e6 for a, b in zip(bounds, bounds[1:]))
        return times

    def calls(self) -> dict[tuple[str, str], int]:
        """Call counts per ``(layer, entry point)`` over every phase."""
        counts: dict[tuple[str, str], int] = defaultdict(int)
        for entry in self.span_entry:
            counts[self.entries[entry]] += 1
        return counts

    def chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto).

        The process is named after the run; each phase is one thread.  Every
        event carries its span index and parent span index.
        """
        entry, start, _, parent, duration, _ = self._arrays()
        origin = int(start.min()) if start.size else 0
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": self.run_id}}]
        meta += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": phase.name}}
            for tid, phase in enumerate(self.phases, start=1)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit":"ms","traceEvents":[')
            handle.write(",".join(json.dumps(event, separators=(",", ":")) for event in meta))
            for tid, phase in enumerate(self.phases, start=1):
                for span in range(phase.first, phase.last):
                    layer, name = self.entries[int(entry[span])]
                    handle.write(
                        f',{{"name":"{name}","cat":"{layer}","ph":"X","pid":1,"tid":{tid},'
                        f'"ts":{(int(start[span]) - origin) / 1e3:.3f},'
                        f'"dur":{int(duration[span]) / 1e3:.3f},'
                        f'"args":{{"span":{span},"parent":{int(parent[span])}}}}}'
                    )
            handle.write("]}\n")
        return int(entry.size)


def coverage_gaps(calls: dict[tuple[str, str], int], required) -> list[str]:
    """Required ``(layer, entry point)`` pairs that recorded no call."""
    return [f"{layer}:{name}" for layer, name in required if not calls.get((layer, name))]
