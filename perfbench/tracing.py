"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:class:`Tracer` swaps each layer's public entry point for a wrapper that
records a span (name, start, end, parent, run id) and, where the layer
reports work, a few counters.  The originals are put back when the
:meth:`Tracer.installed` block exits, so untraced runs execute the
program's own functions untouched.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines at the end of the run.

Only calls made in the benchmark process are seen: device runs inside
pool workers or service workers report through the ``RunResult`` and
``DeviceRecord`` values they return, which the hooks below read.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


@dataclass
class LayerCounters:
    """Work counts gathered at the wrapped boundaries of one run."""

    pools: int = 0
    run_many_calls: int = 0
    jobs: int = 1
    device_runtimes: list = field(default_factory=list)
    line_visits: int = 0
    ff_skipped_visits: int = 0
    appends: int = 0
    devices_expanded: int = 0
    kernel_calls: int = 0
    kernel_rows: int = 0
    kernel_max_visits: int = 0
    recursion_ops: int = 0
    plan: object = None
    provision_report: object = None


def _resolve(path: str):
    """``"pkg.mod"`` or ``"pkg.mod:Class"`` to the object owning the attribute."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = LayerCounters()
        self.run = "untraced"
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def begin_run(self, run: str) -> None:
        self.run = run
        self.counters = LayerCounters()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _count_pool(self, fn):
        @functools.wraps(fn)
        def wrapper(fn_arg, items, jobs=1):
            items = list(items)
            if jobs > 1 and len(items) > 1:
                self.counters.pools += 1
            return fn(fn_arg, items, jobs=jobs)

        wrapper.__perfbench_wrapper__ = True
        return wrapper

    def _patches(self):
        """``(owner path, attribute, wrapper factory)`` for every boundary."""
        def kernel_before(args, kwargs):
            from repro.sim.renewal import aligned_visits

            tasks = list(args[0])
            horizon = args[1] if len(args) > 1 else kwargs["horizon"]
            visits = [aligned_visits(horizon, task.interval) for task in tasks]
            self.counters.kernel_calls += 1
            self.counters.kernel_rows += len(tasks)
            self.counters.kernel_max_visits = max([self.counters.kernel_max_visits, *visits])
            # Computed, not measured: the O(V^2) recursion's multiply-adds.
            self.counters.recursion_ops += sum(v * (v + 1) // 2 for v in visits)
            return (tasks, *args[1:]), kwargs

        def run_many_after(args, kwargs, results):
            jobs = kwargs.get("jobs", args[1] if len(args) > 1 else 1)
            self.counters.run_many_calls += 1
            self.counters.jobs = max(self.counters.jobs, jobs)
            for result in results:
                self.counters.device_runtimes.append(result.runtime_seconds)
                self.counters.line_visits += result.stats.visits
                if result.fast_forward is not None:
                    self.counters.ff_skipped_visits += result.fast_forward["skipped_visits"]

        def count(attr):
            def after(args, kwargs, result):
                setattr(self.counters, attr, getattr(self.counters, attr) + 1)

            return after

        def keep(attr):
            def after(args, kwargs, result):
                setattr(self.counters, attr, result)

            return after

        span = self._wrap
        return [
            ("repro.sim.runner", "cached_crossing_distribution",
             lambda f: span(f, "sim.runner.tabulate")),
            ("repro.fleet.spec:FleetSpec", "device_spec",
             lambda f: span(f, "fleet.spec.device_spec",
                            after=count("devices_expanded"))),
            ("repro.fleet.campaign", "run_many",
             lambda f: span(f, "sim.parallel.run_many", after=run_many_after)),
            ("repro.sim.parallel", "parallel_map", self._count_pool),
            ("repro.screen.planner", "parallel_map", self._count_pool),
            ("repro.fleet.campaign", "append_device",
             lambda f: span(f, "fleet.checkpoint.append", after=count("appends"))),
            ("repro.fleet.campaign", "aggregate",
             lambda f: span(f, "fleet.report.aggregate")),
            ("repro.screen.report", "aggregate_partial",
             lambda f: span(f, "fleet.report.aggregate")),
            ("repro.service.jobs", "plan_screen",
             lambda f: span(f, "screen.planner.plan", after=keep("plan"))),
            ("repro.screen.planner", "finite_horizon_batch",
             lambda f: span(f, "sim.renewal_batch.kernel", before=kernel_before)),
            ("repro.provision.search", "finite_horizon_batch",
             lambda f: span(f, "sim.renewal_batch.kernel", before=kernel_before)),
            ("repro.provision.search:ProvisionSearch", "run",
             lambda f: span(f, "provision.search",
                            after=keep("provision_report"))),
            ("repro.service", "submit_campaign",
             lambda f: span(f, "service.jobs.submit")),
            ("repro.service", "serve_campaign",
             lambda f: span(f, "service.supervisor.serve")),
            ("repro.service", "final_report",
             lambda f: span(f, "service.status.final_report")),
        ]

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        # Import every owner before patching any: a module imported after
        # a patch would bind the wrapper as its "original".
        targets = [(_resolve(path), attr, factory)
                   for path, attr, factory in self._patches()]
        try:
            for owner, attr, factory in targets:
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(s.__dict__, sort_keys=True) + "\n")

    def run_spans(self, run: str) -> list[Span]:
        return [s for s in self.spans if s.run == run]


def wrappers_present() -> list[str]:
    """Boundaries still carrying a benchmark wrapper (empty when clean)."""
    left = []
    for path, attr, _ in Tracer()._patches():
        if getattr(_resolve(path).__dict__[attr], "__perfbench_wrapper__", False):
            left.append(f"{path}.{attr}")
    return left


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_self(spans: list[Span], name: str) -> float:
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name)


def layer_total(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def coverage(spans: list[Span], root: int) -> tuple[float, float]:
    """``(covered share, unattributed seconds)`` of the root span."""
    (top,) = [s for s in spans if s.id == root]
    wall = top.end - top.start
    covered = sum(s.end - s.start for s in spans if s.parent == root)
    return covered / wall, wall - covered


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
