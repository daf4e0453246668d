"""The benchmark's three workloads: inputs from a seed, one operation, checks.

Each workload builds a :class:`repro.fleet.FleetSpec` from the seed (the
seed becomes the campaign seed, so it drives every lot draw and every
device's Monte-Carlo stream), runs one user-path operation through the
public API, and checks the output.  The program sees only the spec.

``tiny=True`` shrinks every workload to a few devices for the
self-check; the committed reference values exist only for the full
size at :data:`DEFAULT_SEED`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro.fleet as fleet
import repro.provision as provision
import repro.service as service
from repro.fleet import DeviceRecord, FleetSpec, aggregate, load_journal
from repro.fleet.report import FIT_HOURS
from repro.provision import knee_point, pareto_frontier
from repro.screen import ScreenConstraints, plan_screen
from repro.sim.renewal import RenewalModel
from repro.sim.runner import crossing_distribution_for
from repro.verify.equivalence import BATCH_REL_FLOOR, BATCH_REL_Z

#: Seed the committed reference values were produced with.
DEFAULT_SEED = 2012
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance on provisioning axes: the batched kernel's own
#: bound against the scalar recursion (the ``surrogate_batch`` law).
AXIS_RTOL = 1e-9


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def _spec(name, seed, devices, lots, config, policy_kwargs, demand=None):
    return FleetSpec.from_dict(
        {
            "version": 1,
            "name": name,
            "devices": devices,
            "policy": "threshold",
            "policy_kwargs": policy_kwargs,
            "capacity_gib_per_device": 16.0,
            "demand_write_rate": demand,
            "config": {"seed": seed, "temperature_k": 300.0, "endurance": None,
                       **config},
            "lots": lots,
        }
    )


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], FleetSpec]
    operate: Callable[[FleetSpec, Path, int], dict]
    #: What the checks compare against, computed once per run outside
    #: the timed region.
    expect: Callable[[FleetSpec], object]
    check: Callable[[FleetSpec, dict, object, dict | None], list[str]]


# -- fleet-busy -----------------------------------------------------------------
# Why: demand traffic on multi-region devices keeps fast-forward off, so
# the engine's visit loop does most of the work - the workload where a
# one-engine change shows.  The spec leaves ``engine`` unset so the
# program's default engine runs.  The campaign keeps a checkpoint
# journal, so the pool, the per-device fsynced journal append and the
# report aggregation are on the measured path too (the workload for
# durable-I/O and pool changes, on which kernel changes should move
# nothing).  Lots are zero-spread: devices differ only in their
# Monte-Carlo streams, so totals from any seed scatter around the
# reference by sampling noise alone, and set-up is cheap.


def fleet_busy_spec(seed: int, tiny: bool) -> FleetSpec:
    lots = [
        {"name": "cool-aisle", "weight": 1},
        {"name": "hot-aisle", "weight": 1,
         "temperature_k": {"mean": 330.0, "spread": 0.0}},
    ]
    return _spec(
        "bench-fleet-busy", seed, 2 if tiny else 8, lots,
        {"num_lines": 512 if tiny else 2048, "region_size": 256,
         "horizon_days": 0.25 if tiny else 3.0},
        {"interval": 7200.0, "strength": 2, "threshold": 1},
        demand=1.0,
    )


def fleet_busy_run(spec: FleetSpec, opdir: Path, jobs: int) -> dict:
    journal = opdir / "campaign.jsonl"
    outcome = fleet.run_campaign(spec, jobs=jobs, checkpoint=journal)
    return {"report": outcome.report.to_dict(), "journal": journal}


def nothing(spec: FleetSpec) -> None:
    return None


BUSY_TOTALS = ("uncorrectable", "scrub_writes")


def busy_totals(report: dict) -> dict:
    totals = {key: float(report[key]) for key in BUSY_TOTALS}
    totals["scrub_energy_j"] = float(report["scrub_energy_j"])
    return totals


def fleet_busy_check(spec: FleetSpec, out: dict, expected, ref: dict | None) -> list[str]:
    """The journal round trip, and totals inside the batch-vs-scalar band
    around the reference.

    The report must be byte-identical to one re-aggregated from its own
    journal (``load_journal`` + ``aggregate``), for any seed.  The band is the one ``repro.verify`` holds the two engines to on
    multi-region demand, ``max(floor, z * sqrt(2 / expected))``: two
    seeds are two independent samples of the same process, exactly like
    two engines with different draw orders.  Energy is mostly the
    deterministic read/decode charge, so it gets the floor alone.
    """
    errors = []
    _, journaled = load_journal(out["journal"], expected_hash=spec.content_hash())
    again = aggregate(spec, [DeviceRecord.from_dict(r) for r in journaled.values()])
    if canonical(again.to_dict()) != canonical(out["report"]):
        errors.append("report differs from the one re-aggregated from its journal")
    if ref is None:
        return errors
    for key, observed in busy_totals(out["report"]).items():
        expected = ref["totals"][key]
        rel = BATCH_REL_FLOOR
        if key in BUSY_TOTALS:
            rel = max(rel, BATCH_REL_Z * math.sqrt(2.0 / max(expected, 1.0)))
        if abs(observed - expected) > rel * expected:
            errors.append(
                f"{key} = {observed:g} outside {expected:g} +- {rel:.1%}"
            )
    return errors


# -- screen-served ----------------------------------------------------------------
# Why: the service path end to end - spec expansion and ``plan_screen``
# over the whole fleet (a kernel whose memo collapses zero-spread lots to
# one row each), then shards, leases, snapshots and journals for the
# escalated hot-aisle subset.  Lots stay zero-spread: a temperature
# spread would make every device a fresh cold tabulation.


def screen_served_spec(seed: int, tiny: bool) -> FleetSpec:
    lots = [
        {"name": "cool-aisle", "weight": 15,
         "temperature_k": {"mean": 300.0, "spread": 0.0}},
        {"name": "hot-aisle", "weight": 3,
         "temperature_k": {"mean": 320.0, "spread": 0.0}},
        {"name": "recalled", "weight": 2,
         "temperature_k": {"mean": 360.0, "spread": 0.0}},
    ]
    return _spec(
        "bench-screen-served", seed, 20 if tiny else 400, lots,
        {"num_lines": 512, "region_size": 512, "horizon_days": 2.0},
        {"interval": 1800.0, "strength": 4, "with_detector": False},
    )


def screen_constraints(spec: FleetSpec) -> ScreenConstraints:
    """A budget of 4 expected horizon UEs per device (the p04 budget)."""
    horizon_hours = spec.base_config.horizon / 3600.0
    return ScreenConstraints(
        fit_limit=4.0 * FIT_HOURS * spec.capacity_scale / horizon_hours
    )


def screen_served_run(spec: FleetSpec, opdir: Path, jobs: int) -> dict:
    root = opdir / "campaign"
    campaign = service.submit_campaign(
        spec, root, shards=jobs, constraints=screen_constraints(spec)
    )
    served = service.serve_campaign(root, workers=jobs)
    report = service.final_report(root)
    return {
        "report": report.to_dict(),
        "escalated": campaign.screen.escalated,
        "served": served,
        "campaign": campaign,
    }


def screen_served_expect(spec: FleetSpec) -> tuple[int, ...]:
    return plan_screen(spec, screen_constraints(spec)).escalated


def screen_served_check(spec: FleetSpec, out: dict, expected, ref: dict | None) -> list[str]:
    """Escalated set and MC share against ``plan_screen``; digest at the default."""
    errors = []
    if tuple(out["escalated"]) != tuple(expected):
        errors.append("served escalated set differs from plan_screen")
    if out["report"]["mc_devices"] != len(expected):
        errors.append("served report's MC share differs from the plan")
    if out["served"]["worker_deaths"]:
        errors.append(f"{out['served']['worker_deaths']} service workers died")
    if ref is not None and digest(out["report"]) != ref["digest"]:
        errors.append("report digest differs from the committed reference")
    return errors


# -- provision-long -------------------------------------------------------------
# Why: a month-long horizon at intervals down to 15 minutes gives visit
# grids up to V = 2880, so the O(V^2) renewal recursion does nearly all
# the work; no FIT limit means nothing escalates to MC.  The fleet
# workloads never reach this kernel, so it is where a sub-quadratic
# kernel shows and the only workload it should move.  The lots are the
# smoke fleet's vendor-a and hot-aisle corners at a tenth of their
# spread: every device still has its own distribution, so every kernel
# row is computed afresh, but the propagation's early break lands at
# nearly the same visit whatever the seed, so the work does not depend
# on it (at full spread, four devices made the run time bimodal in the
# seed).

PROVISION_SPACE = provision.CandidateSpace(
    policies=("threshold",),
    intervals=(900.0, 1800.0, 3600.0, 7200.0, 14400.0),
    strengths=(2, 4),
)


def provision_long_spec(seed: int, tiny: bool) -> FleetSpec:
    lots = [
        {"name": "vendor-a", "weight": 1,
         "nu_mu_scale": {"mean": 1.0, "spread": 0.004, "low": 0.0},
         "nu_sigma_scale": {"mean": 1.0, "spread": 0.005, "low": 0.0}},
        {"name": "vendor-b-hot-aisle", "weight": 1,
         "nu_mu_scale": {"mean": 1.1, "spread": 0.008, "low": 0.0},
         "nu_sigma_scale": {"mean": 1.15, "spread": 0.01, "low": 0.0},
         "temperature_k": {"mean": 318.0, "spread": 0.3, "low": 250.0}},
    ]
    return _spec(
        "bench-provision-long", seed, 2 if tiny else 4, lots,
        {"num_lines": 256, "region_size": 256,
         "horizon_days": 2.0 if tiny else 30.0},
        {"interval": 3600.0, "strength": 4, "with_detector": False},
    )


def provision_long_run(spec: FleetSpec, opdir: Path, jobs: int) -> dict:
    report = provision.ProvisionSearch(spec, space=PROVISION_SPACE, jobs=jobs).run()
    return {"report": report.to_dict(), "provision": report}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= AXIS_RTOL * max(abs(a), abs(b))


def provision_long_expect(spec: FleetSpec) -> dict:
    """Scalar-oracle lot totals on the shortest visit grid (cheap for any seed)."""
    horizon = spec.base_config.horizon
    interval = max(PROVISION_SPACE.intervals)
    totals = {}
    for lot in spec.lots:
        devices = [spec.device_spec(i) for i in spec.lot_indices(lot.name)]
        for strength in PROVISION_SPACE.strengths:
            c = provision.Candidate("threshold", interval, strength)
            ue = writes = 0.0
            for device in devices:
                s = RenewalModel(
                    crossing_distribution_for(device.config),
                    device.config.cells_per_line,
                ).finite_horizon(interval, strength, c.effective_threshold, horizon)
                ue += s.expected_ue * device.config.num_lines
                writes += s.expected_writes * device.config.num_lines
            totals[lot.name, c.key] = (ue, writes)
    return totals


def provision_long_check(spec: FleetSpec, out: dict, expected, ref: dict | None) -> list[str]:
    """Frontier/knee consistency and the scalar oracle for any seed; exact
    frontier keys and recommendations, axes within 1e-9, at the default."""
    errors = []
    for lot in out["provision"].lots:
        frontier = pareto_frontier(
            e.point() for e in lot.evaluations if e.feasible
        )
        if tuple(p.key for p in frontier) != lot.frontier:
            errors.append(f"{lot.lot}: frontier is not the Pareto set")
        if lot.recommended != knee_point(frontier).key:
            errors.append(f"{lot.lot}: recommendation is not the knee")
        for e in lot.evaluations:
            oracle = expected.get((lot.lot, e.candidate.key))
            if oracle is None:
                continue
            if not (_close(oracle[0], e.expected_ue)
                    and _close(oracle[1], e.expected_writes)):
                errors.append(
                    f"{lot.lot}/{e.candidate.key}: totals differ from the "
                    "scalar recursion"
                )
    if ref is not None:
        expected = ref["lots"]
        got = provision_summary(out["report"])
        for name, lot in expected.items():
            mine = got.get(name)
            if mine is None:
                errors.append(f"lot {name} missing")
                continue
            if mine["frontier"] != lot["frontier"]:
                errors.append(f"{name}: frontier keys differ from the reference")
            if mine["recommended"] != lot["recommended"]:
                errors.append(f"{name}: recommendation differs from the reference")
            for key, axes in lot["axes"].items():
                if not all(_close(a, b) for a, b in zip(axes, mine["axes"][key])):
                    errors.append(f"{name}/{key}: axes outside {AXIS_RTOL:g}")
    return errors


def provision_summary(report: dict) -> dict:
    """Frontier keys, recommendation and axes per lot, from ``to_dict``."""
    lots = {}
    for lot in report["lots"]:
        lots[lot["lot"]] = {
            "frontier": list(lot["frontier"]),
            "recommended": lot["recommended"],
            "axes": {
                provision.Candidate.from_dict(e["candidate"]).key:
                [e[axis] for axis in provision.AXES]
                for e in lot["evaluations"]
            },
        }
    return lots


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fleet-busy", fleet_busy_spec, fleet_busy_run, nothing,
                 fleet_busy_check),
        Workload("screen-served", screen_served_spec, screen_served_run,
                 screen_served_expect, screen_served_check),
        Workload("provision-long", provision_long_spec, provision_long_run,
                 provision_long_expect, provision_long_check),
    )
}


def reference_entry(workload: str, out: dict) -> dict:
    """What the committed reference stores for one workload's output."""
    if workload == "fleet-busy":
        return {"totals": busy_totals(out["report"])}
    if workload == "provision-long":
        return {"lots": provision_summary(out["report"])}
    return {"digest": digest(out["report"])}


def load_reference(workload: str, seed: int, tiny: bool) -> dict | None:
    """The committed reference that applies to this run, if any.

    Digests and exact frontiers hold for :data:`DEFAULT_SEED` only; the
    fleet-busy band holds for every seed (see :func:`fleet_busy_check`).
    """
    if tiny or not REFERENCE_PATH.exists():
        return None
    if seed != DEFAULT_SEED and workload != "fleet-busy":
        return None
    return json.loads(REFERENCE_PATH.read_text()).get(workload)


def tabulate_all(spec: FleetSpec) -> None:
    """Tabulate every distinct device distribution into the disk cache."""
    for index in range(spec.devices):
        crossing_distribution_for(spec.device_spec(index).config)


def layer_extras(out: dict) -> dict:
    """Per-layer figures the service leaves on disk (its workers are
    separate processes): device runs from the shard journals, shard wall
    time from the ``.done`` markers."""
    campaign = out.get("campaign")
    if campaign is None:
        return {}
    runtimes, visits, shard_s = [], 0, 0.0
    for shard in campaign.shards:
        for record in campaign.shard_records(shard).values():
            runtimes.append(record.runtime_seconds)
            visits += int(record.summary["visits"])
        marker = json.loads(campaign.marker_path(shard).read_text())
        shard_s += marker["wall_seconds"]
    return {"device_runtimes": runtimes, "line_visits": visits,
            "shard_s": shard_s, "served": out["served"]}
