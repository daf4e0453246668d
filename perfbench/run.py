"""Repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload fleet-busy --seed 2012 --seconds 40 --trace 0

The package is imported from the ``src/`` directory beside ``perfbench/``.
One invocation is one fresh process with its own fresh
``REPRO_CACHE_DIR`` under ``.perfbench_work/``; the work directory is
removed on exit.  The workload's operation runs in a closed loop - one
operation in flight, the program's own ``jobs``/``workers`` set to the
CPUs this process may use - until the next one would overrun
``--seconds``, counted from the start of the process and including the
set-ups; every output is checked outside the timed region.

``--trace 0`` prints the end-to-end metrics, with every time scaled to a
nominal host speed measured by a calibration loop around each timed
step (see ``Bench.scale_since``); ``--trace 1`` runs a few
untraced operations, then one with every layer boundary wrapped
(see ``tracing.py``), and prints the per-layer metrics.  Spans are
written to ``.perfbench_out/<workload>-seed<seed>-spans.jsonl``.  The
last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fleet-busy", "screen-served", "provision-long")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Timings of the calibration loop right before and right after each
#: timed step; their median is the host's speed during that step.
CALIBRATION_REPEATS = 3
#: The calibration loop's median time on the 2-vCPU VM the benchmark was
#: tuned on.  Every end-to-end time is scaled to a host running the loop
#: this fast (see ``Bench.scale_since``).
NOMINAL_CALIBRATION_S = 0.0075

PER_LAYER = {
    "sim.runner.tabulate_s": "s",
    "sim.runner.tabulations": "count",
    "sim.runner.cache_disk_hits": "count",
    "fleet.spec.device_spec_s": "s",
    "fleet.spec.devices": "count",
    "sim.parallel.run_many_s": "s",
    "sim.parallel.run_many_calls": "count",
    "sim.parallel.pools": "count",
    "sim.parallel.busy_ratio": "ratio",
    "sim.engine.device_s": "s",
    "sim.engine.device_p50_s": "s",
    "sim.engine.device_p90_s": "s",
    "sim.engine.line_visits": "count",
    "sim.engine.ff_skipped_visits": "count",
    "sim.engine.visits_per_s": "1/s",
    "fleet.checkpoint.append_s": "s",
    "fleet.checkpoint.appends": "count",
    "fleet.report.aggregate_s": "s",
    "screen.planner.plan_s": "s",
    "screen.planner.escalated": "count",
    "screen.planner.resolved_ratio": "ratio",
    "sim.renewal_batch.kernel_s": "s",
    "sim.renewal_batch.calls": "count",
    "sim.renewal_batch.rows": "count",
    "sim.renewal_batch.max_visits": "count",
    "sim.renewal_batch.memo_computed": "count",
    "sim.renewal_batch.memo_hits": "count",
    "sim.renewal_batch.recursion_ops": "ops",
    "provision.search.self_s": "s",
    "provision.search.surrogate_evals": "count",
    "provision.search.mc_device_runs": "count",
    "service.jobs.submit_s": "s",
    "service.supervisor.serve_s": "s",
    "service.status.final_report_s": "s",
    "service.worker.shard_s": "s",
    "service.worker.busy_ratio": "ratio",
    "service.supervisor.worker_deaths": "count",
    "service.supervisor.restarts": "count",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few-device inputs (self-check only)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(own_kb: int | None = None) -> float:
    """The larger of this process's peak RSS (or ``own_kb``) and the
    largest peak RSS of any child it has reaped."""
    if own_kb is None:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, kids) / 1024.0


def calibration_loop(data) -> float:
    """Time a fixed mix of interpreter and numpy work (about 8 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i
    for _ in range(4):
        total += float(numpy.cumsum(data, axis=1)[:, ::-1].sum())
    return time.perf_counter() - started


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process multiprocessing starts for spawn
    pools, so the run leaves no process of its own behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def setup_only(args) -> int:
    """The timed set-up: imports, spec generation, cold tabulation."""
    import workloads

    spec = workloads.WORKLOADS[args.workload].build(args.seed, args.tiny)
    workloads.tabulate_all(spec)
    return 0


class Bench:
    """One benchmark run: the set-up, the closed loop and the checks."""

    def __init__(self, args, work: Path, started: float):
        import workloads

        self.args = args
        #: The run ends ``--seconds`` after ``started`` (process start).
        self.deadline = started + args.seconds
        self.started = started
        self.work = work
        self.w = workloads
        self.workload = workloads.WORKLOADS[args.workload]
        self.jobs = len(os.sched_getaffinity(0))
        self.spec = self.workload.build(args.seed, args.tiny)
        self.ref = workloads.load_reference(args.workload, args.seed, args.tiny)
        self.cache = work / "cache"
        self.first_digest = None
        self.expected = None
        self.ops: list[dict] = []
        self.setups: list[float] = []
        self.setup_scales: list[float] = []
        self.calibration_data = numpy.random.default_rng(0).random((64, 4096))

    def calibrate(self) -> list[float]:
        return [calibration_loop(self.calibration_data)
                for _ in range(CALIBRATION_REPEATS)]

    def scale_since(self, before: list[float]) -> float:
        """The factor that scales a step's times to the nominal host speed,
        from the calibrations ``before`` it and one taken now.

        Neighbours on a shared host slow the program in episodes of
        seconds to minutes (one provision-long operation took 2.1 to
        4.4 s of CPU within eight minutes on a 2-vCPU VM), and they slow
        this loop alike.  Scaling each step by the loop's speed around
        it keeps a run's figures from following the neighbours.
        """
        return NOMINAL_CALIBRATION_S / statistics.median(before + self.calibrate())

    def fresh_setup(self) -> Path:
        """Time one set-up in a fresh process; returns the cache it filled."""
        cache = self.work / f"cache-{len(self.setups)}"
        command = [sys.executable, str(HERE / "run.py"), "--setup-only",
                   "--workload", self.args.workload, "--seed", str(self.args.seed)]
        if self.args.tiny:
            command.append("--tiny")
        before = self.calibrate()
        started = time.perf_counter()
        subprocess.run(command, check=True,
                       env=dict(os.environ, REPRO_CACHE_DIR=str(cache)))
        self.setups.append(time.perf_counter() - started)
        self.setup_scales.append(self.scale_since(before))
        return cache

    def use_cache(self, cache: Path) -> None:
        self.cache = cache
        os.environ["REPRO_CACHE_DIR"] = str(cache)

    def reset_memos(self) -> None:
        """Every operation starts like a fresh CLI call on a warm disk cache.

        Tabulations stay on disk (set-up paid for them); the in-process
        memos go, and so do persisted renewal propagations, so every
        operation computes its kernel rows afresh.
        """
        from repro.sim.renewal_batch import clear_propagation_cache
        from repro.sim.runner import clear_distribution_cache

        clear_distribution_cache()
        clear_propagation_cache()
        for path in self.cache.glob("renewal-*.npz"):
            path.unlink()

    def operation(self, tracer=None) -> dict:
        """Run, time and check one operation; returns its record."""
        index = len(self.ops)
        opdir = self.work / f"op-{index}"
        opdir.mkdir()
        self.reset_memos()
        record = {"errors": []}
        before = self.calibrate()
        cpu0 = cpu_seconds()
        started = time.perf_counter()
        try:
            if tracer is None:
                out = self.workload.operate(self.spec, opdir, self.jobs)
            else:
                with tracer.span("operation") as root:
                    out = self.workload.operate(self.spec, opdir, self.jobs)
                record["root"] = root
            record["wall"] = time.perf_counter() - started
            record["cpu"] = cpu_seconds() - cpu0
            # The process's peak after one operation, as a single CLI
            # call would leave it; it grows by about 1.5 MB with every
            # further operation (provision-long), so a peak taken at the
            # end of the run would follow the operation count.
            record["own_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            record["scale"] = self.scale_since(before)
            if self.expected is None:
                self.expected = self.workload.expect(self.spec)
            record["errors"] = self.workload.check(
                self.spec, out, self.expected, self.ref
            )
            report_digest = self.w.digest(out["report"])
            if self.first_digest is None:
                self.first_digest = report_digest
            elif report_digest != self.first_digest:
                record["errors"].append("report differs from the first operation's")
            if tracer is not None:
                record["layers"] = self.w.layer_extras(out)
        except Exception:
            record.setdefault("wall", time.perf_counter() - started)
            record.setdefault("cpu", cpu_seconds() - cpu0)
            record.setdefault("scale", self.scale_since(before))
            record["errors"].append(traceback.format_exc())
        finally:
            shutil.rmtree(opdir, ignore_errors=True)
        for error in record["errors"]:
            print(f"check failed ({self.args.workload}, op {index}): {error}",
                  file=sys.stderr)
        self.ops.append(record)
        return record

    def closed_loop(self, keep, between=None) -> None:
        """Operations back to back until the next would overrun the run.

        ``keep(last)`` is the time, beyond one more operation as long as
        the ``last``, that the run needs after the loop (set-ups still to
        come, the traced operation).  ``between(elapsed)`` runs after each
        operation that is not the last; its time counts against the run.
        At least one operation always runs.
        """
        while True:
            last = self.operation()["wall"]
            now = time.perf_counter()
            if now + last + keep(last) > self.deadline:
                return
            if between is not None:
                between(now - self.started)

    def summary(self, metrics: dict) -> dict:
        failed = sum(1 for op in self.ops if op["errors"])
        return {
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units}
                for name, (value, units) in metrics.items()
            },
        }


def end_to_end(bench: Bench) -> dict:
    from tracing import percentile

    seconds = bench.args.seconds
    bench.use_cache(bench.fresh_setup())

    def setups_to_come(last: float) -> float:
        return (SETUP_REPEATS - len(bench.setups)) * max(bench.setups)

    def spread_setups(elapsed: float) -> None:
        # The other set-ups go between operations, spread over the run,
        # so both medians sample the machine's speed across the whole run
        # rather than one stretch of it.
        if len(bench.setups) < SETUP_REPEATS * elapsed / seconds:
            bench.fresh_setup()

    bench.closed_loop(setups_to_come, between=spread_setups)
    while len(bench.setups) < SETUP_REPEATS:
        bench.fresh_setup()
    # Every time is scaled to the nominal host speed (``scale_since``);
    # the raw medians are printed beside them.
    setups = [t * k for t, k in zip(bench.setups, bench.setup_scales)]
    walls = [op["wall"] * op["scale"] for op in bench.ops]
    cpus = [op["cpu"] * op["scale"] for op in bench.ops]
    scales = [op["scale"] for op in bench.ops] + bench.setup_scales
    failed = sum(1 for op in bench.ops if op["errors"])
    print(f"workload {bench.args.workload}  seed {bench.args.seed}  "
          f"jobs {bench.jobs}  operations {len(walls)}  set-ups {len(setups)}")
    print(f"  host speed (nominal calibration / measured) median "
          f"{statistics.median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}")
    print(f"  report_s samples: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"  report_s median {statistics.median(walls):.4f} s, "
          f"p90 {percentile(walls, 90):.4f} s over {len(walls)} operations; "
          f"raw median {statistics.median(op['wall'] for op in bench.ops):.4f} s")
    print(f"  cpu_s median {statistics.median(cpus):.4f} s, "
          f"p90 {percentile(cpus, 90):.4f} s; "
          f"raw median {statistics.median(op['cpu'] for op in bench.ops):.4f} s")
    print(f"  setup_s samples:  {' '.join(f'{s:.4f}' for s in setups)}; "
          f"raw median {statistics.median(bench.setups):.4f} s")
    print(f"  failed_frac {failed / len(bench.ops):.4f} ratio")
    print(f"  peak RSS at the end of the run {peak_rss_mb():.1f} MB")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "report_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(bench.ops[0].get("own_rss_kb")), "MB"),
    }


def per_layer(bench: Bench) -> dict:
    import tracing
    from repro.sim.renewal_batch import SURROGATE_MEMO_COUNTERS
    from repro.sim.runner import DISTRIBUTION_CACHE_COUNTERS

    tracer = tracing.Tracer()
    # A traced in-process set-up into a fresh cache: the tabulation
    # layer's work happens here, not in the operations.
    bench.use_cache(bench.work / "cache-traced")
    bench.reset_memos()
    with tracer.installed():
        tracer.begin_run("setup")
        with tracer.span("setup"):
            bench.w.tabulate_all(bench.spec)
    setup_cache = dict(DISTRIBUTION_CACHE_COUNTERS)

    bench.closed_loop(keep=lambda last: last)
    untraced = statistics.median(op["wall"] for op in bench.ops)
    with tracer.installed():
        tracer.begin_run("operation")
        op = bench.operation(tracer)
        op_cache = dict(DISTRIBUTION_CACHE_COUNTERS)
        memo = dict(SURROGATE_MEMO_COUNTERS)
    leftover = tracing.wrappers_present()
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{bench.args.workload}-seed{bench.args.seed}-spans.jsonl")

    if "root" not in op:
        return {name: (0.0, unit) for name, unit in PER_LAYER.items()}
    c = tracer.counters
    setup_spans = tracer.run_spans("setup")
    spans = tracer.run_spans("operation")

    def own(name: str) -> float:
        return tracing.layer_self(spans, name)

    share, unattributed = tracing.coverage(spans, op["root"])
    extras = op.get("layers", {})
    runtimes = c.device_runtimes or extras.get("device_runtimes", [])
    visits = c.line_visits or extras.get("line_visits", 0)
    device_s = sum(runtimes)
    run_many_wall = tracing.layer_total(spans, "sim.parallel.run_many")
    serve_wall = tracing.layer_total(spans, "service.supervisor.serve")
    shard_s = extras.get("shard_s", 0.0)
    served = extras.get("served", {})
    plan = c.plan
    report = c.provision_report
    values = {
        "sim.runner.tabulate_s": tracing.layer_self(setup_spans, "sim.runner.tabulate")
        + own("sim.runner.tabulate"),
        "sim.runner.tabulations": setup_cache["tabulated"] + op_cache["tabulated"],
        "sim.runner.cache_disk_hits": setup_cache["disk"] + op_cache["disk"],
        "fleet.spec.device_spec_s": own("fleet.spec.device_spec"),
        "fleet.spec.devices": c.devices_expanded,
        "sim.parallel.run_many_s": own("sim.parallel.run_many"),
        "sim.parallel.run_many_calls": c.run_many_calls,
        "sim.parallel.pools": c.pools,
        "sim.parallel.busy_ratio": (
            device_s / (c.jobs * run_many_wall) if run_many_wall else 0.0
        ),
        "sim.engine.device_s": device_s,
        "sim.engine.device_p50_s": tracing.percentile(runtimes, 50),
        "sim.engine.device_p90_s": tracing.percentile(runtimes, 90),
        "sim.engine.line_visits": visits,
        "sim.engine.ff_skipped_visits": c.ff_skipped_visits,
        "sim.engine.visits_per_s": visits / device_s if device_s else 0.0,
        "fleet.checkpoint.append_s": own("fleet.checkpoint.append"),
        "fleet.checkpoint.appends": c.appends,
        "fleet.report.aggregate_s": own("fleet.report.aggregate"),
        "screen.planner.plan_s": own("screen.planner.plan"),
        "screen.planner.escalated": len(plan.escalated) if plan else 0,
        "screen.planner.resolved_ratio": (
            len(plan.surrogate_indices) / plan.devices if plan else 0.0
        ),
        "sim.renewal_batch.kernel_s": own("sim.renewal_batch.kernel"),
        "sim.renewal_batch.calls": c.kernel_calls,
        "sim.renewal_batch.rows": c.kernel_rows,
        "sim.renewal_batch.max_visits": c.kernel_max_visits,
        "sim.renewal_batch.memo_computed": memo["computed"],
        "sim.renewal_batch.memo_hits": memo["memory"] + memo["disk"],
        "sim.renewal_batch.recursion_ops": c.recursion_ops,
        "provision.search.self_s": own("provision.search"),
        "provision.search.surrogate_evals": (
            sum(e.surrogate_devices for lot in report.lots for e in lot.evaluations)
            if report else 0
        ),
        "provision.search.mc_device_runs": report.mc_device_runs if report else 0,
        "service.jobs.submit_s": own("service.jobs.submit"),
        "service.supervisor.serve_s": own("service.supervisor.serve"),
        "service.status.final_report_s": own("service.status.final_report"),
        "service.worker.shard_s": shard_s,
        "service.worker.busy_ratio": (
            shard_s / (served["workers"] * serve_wall) if serve_wall else 0.0
        ),
        "service.supervisor.worker_deaths": served.get("worker_deaths", 0),
        "service.supervisor.restarts": served.get("restarts", 0),
        "trace.coverage": share,
        "trace.unattributed_s": unattributed,
        "trace.overhead_s": op["wall"] - untraced,
    }
    print(f"workload {bench.args.workload}  seed {bench.args.seed}  "
          f"jobs {bench.jobs}  untraced operations {len(bench.ops) - 1}")
    print(f"  report_s untraced median {untraced:.4f} s, traced {op['wall']:.4f} s")
    print(f"  engine samples (device runs) {len(runtimes)}")
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    if args.setup_only:
        return setup_only(args)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        bench = Bench(args, work, started)
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
        for name, (value, unit) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit}")
        print(json.dumps(bench.summary(metrics)))
    finally:
        stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
