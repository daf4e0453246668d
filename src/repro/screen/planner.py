"""Surrogate screening: classify fleet devices before any MC is spent.

A million-device campaign cannot Monte-Carlo every device.  But most
devices in a real fleet are nowhere near their reliability budget, and
for the paper's own modelling assumptions the finite-horizon renewal
solution (:meth:`repro.sim.renewal.RenewalModel.finite_horizon`) is an
*exact* surrogate for the engine: same expected UE and write-back
counts, same per-line survival probability, at closed-form cost.  The
planner evaluates every lot-sampled device parameter point through that
surrogate and classifies it against the campaign's constraints:

``pass``
    the device's predictive interval clears every constraint - no MC;
``fail``
    the predictive interval violates a constraint outright - no MC
    either (the verdict is already deterministic);
``uncertain``
    the interval straddles a constraint, *or* the device sits outside
    the surrogate's validated regime (demand traffic, non-threshold
    policies, detector-gated decode, wear, spares, multi-region phase
    offsets) - these escalate to the full MC engine.

Classification is a pure function of ``(spec, constraints)``: device
parameters are drawn from ``default_rng([seed, index])`` exactly as the
campaign runner draws them, so the plan is independent of shard layout,
``--jobs``, or resume boundaries - the property the deterministic-
classification tests pin.  In-regime devices are evaluated through the
batched kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`)
- one call per lot-policy parameter group with vectorized Poisson
predictive bounds - and ``jobs > 1`` fans contiguous device chunks over
the process pool; ``batch=False`` keeps the per-device scalar path as
the reference oracle.

The *FIT* constraint is a per-device budget on the capacity-scaled FIT
(the same scaling as :attr:`repro.fleet.report.FleetReport.fit_scaled`).
The surrogate gives the exact expectation ``lambda`` of the device's UE
count over the horizon; the realized count is Poisson-distributed around
it, so the screen compares the central predictive interval against the
count budget ``c* = fit_limit * horizon_hours / (1e9 * capacity_scale)``.
The *availability* constraint compares the exact probability of a
UE-free horizon ``p0 = q(V)^num_lines`` against the floor, with a
configurable margin band that routes borderline devices to MC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import poisson

from ..fleet.report import FIT_HOURS
from ..fleet.spec import DeviceSpec, FleetSpec
from ..obs.metrics import GLOBAL_REGISTRY
from ..sim.parallel import parallel_map
from ..sim.renewal import RenewalModel
from ..sim.renewal_batch import RenewalTask, finite_horizon_batch
from ..sim.runner import crossing_distribution_for


class ScreenError(ValueError):
    """A screening request is malformed or unsatisfiable."""


class ScreenInvariantError(RuntimeError):
    """A screening artifact failed an internal cross-check."""


#: Decision labels.
PASS, FAIL, UNCERTAIN = "pass", "fail", "uncertain"
#: Provenance labels.
SURROGATE, MC = "surrogate", "mc"


@dataclass(frozen=True)
class ScreenConstraints:
    """The reliability budget devices are screened against.

    At least one of ``fit_limit`` (capacity-scaled per-device FIT) and
    ``min_availability`` (per-device probability of a UE-free horizon)
    must be set.  ``confidence`` is the central coverage of the Poisson
    predictive interval used for the FIT screen; ``availability_margin``
    is the +-band around ``min_availability`` inside which a device is
    escalated instead of classified.
    """

    fit_limit: float | None = None
    min_availability: float | None = None
    confidence: float = 0.95
    availability_margin: float = 0.02

    def __post_init__(self) -> None:
        if self.fit_limit is None and self.min_availability is None:
            raise ScreenError(
                "screening needs at least one constraint: fit_limit "
                "and/or min_availability"
            )
        if self.fit_limit is not None and self.fit_limit <= 0:
            raise ScreenError("fit_limit must be positive")
        if self.min_availability is not None and not 0 < self.min_availability < 1:
            raise ScreenError("min_availability must be in (0, 1)")
        if not 0 < self.confidence < 1:
            raise ScreenError("confidence must be in (0, 1)")
        if self.availability_margin < 0:
            raise ScreenError("availability_margin must be >= 0")

    def to_dict(self) -> dict:
        return {
            "fit_limit": self.fit_limit,
            "min_availability": self.min_availability,
            "confidence": self.confidence,
            "availability_margin": self.availability_margin,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScreenConstraints":
        return cls(
            fit_limit=(
                None if data.get("fit_limit") is None else float(data["fit_limit"])
            ),
            min_availability=(
                None
                if data.get("min_availability") is None
                else float(data["min_availability"])
            ),
            confidence=float(data.get("confidence", 0.95)),
            availability_margin=float(data.get("availability_margin", 0.02)),
        )


@dataclass(frozen=True)
class ScreenDecision:
    """One device's screening verdict and its surrogate evaluation."""

    index: int
    lot: str
    #: ``pass`` / ``fail`` / ``uncertain``.
    classification: str
    #: Why the device escalated (empty for surrogate-resolved devices):
    #: ``regime:*`` markers for out-of-regime points, ``fit_ci_overlap``
    #: and ``availability_margin`` for constraint-straddling ones.
    reasons: tuple[str, ...] = ()
    #: Exact expected device UE count over the horizon (``None`` when the
    #: surrogate was not evaluated because the device is out of regime).
    expected_ue: float | None = None
    #: Exact expected scrub write-backs over the horizon.
    expected_writes: float | None = None
    #: Exact probability of a UE-free horizon.
    no_ue_probability: float | None = None
    #: Capacity-scaled FIT implied by ``expected_ue``.
    fit_scaled: float | None = None

    @property
    def method(self) -> str:
        """Where this device's report contribution comes from."""
        return MC if self.classification == UNCERTAIN else SURROGATE

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "lot": self.lot,
            "classification": self.classification,
            "method": self.method,
            "reasons": list(self.reasons),
            "expected_ue": self.expected_ue,
            "expected_writes": self.expected_writes,
            "no_ue_probability": self.no_ue_probability,
            "fit_scaled": self.fit_scaled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScreenDecision":
        def opt(key: str) -> float | None:
            return None if data.get(key) is None else float(data[key])

        return cls(
            index=int(data["index"]),
            lot=str(data["lot"]),
            classification=str(data["classification"]),
            reasons=tuple(str(r) for r in data.get("reasons", [])),
            expected_ue=opt("expected_ue"),
            expected_writes=opt("expected_writes"),
            no_ue_probability=opt("no_ue_probability"),
            fit_scaled=opt("fit_scaled"),
        )


@dataclass(frozen=True)
class ScreenPlan:
    """Every device's decision plus the constraints that produced them."""

    spec_hash: str
    constraints: ScreenConstraints
    decisions: tuple[ScreenDecision, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        indices = [decision.index for decision in self.decisions]
        if indices != list(range(len(indices))):
            raise ScreenInvariantError(
                "screen plan decisions must cover device indices "
                f"0..{len(indices) - 1} in order"
            )

    @property
    def devices(self) -> int:
        return len(self.decisions)

    @property
    def escalated(self) -> tuple[int, ...]:
        """Device indices routed to the MC engine, ascending."""
        return tuple(
            decision.index
            for decision in self.decisions
            if decision.method == MC
        )

    @property
    def surrogate_indices(self) -> tuple[int, ...]:
        return tuple(
            decision.index
            for decision in self.decisions
            if decision.method == SURROGATE
        )

    @property
    def mc_fraction(self) -> float:
        return len(self.escalated) / self.devices if self.devices else 0.0

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, UNCERTAIN: 0}
        for decision in self.decisions:
            out[decision.classification] += 1
        return out

    def to_dict(self) -> dict:
        return {
            "spec_hash": self.spec_hash,
            "constraints": self.constraints.to_dict(),
            "decisions": [decision.to_dict() for decision in self.decisions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScreenPlan":
        return cls(
            spec_hash=str(data["spec_hash"]),
            constraints=ScreenConstraints.from_dict(data["constraints"]),
            decisions=tuple(
                ScreenDecision.from_dict(entry) for entry in data["decisions"]
            ),
        )


# -- regime checks ------------------------------------------------------------

#: Policies whose visit rule the renewal surrogate models exactly.  The
#: threshold family covers basic-style immediate write-back through
#: ``threshold=1``; adaptive/combined/budgeted schedules and partial
#: (cell-selective) write-back change the dynamics the solver propagates.
SURROGATE_POLICIES = frozenset({"threshold"})


def regime_reasons(spec: FleetSpec, device: DeviceSpec) -> tuple[str, ...]:
    """Why the surrogate's validity assumptions fail for ``device``.

    Empty means the finite-horizon renewal solution is exact for this
    device (idle, pure threshold rule without a detector, single region,
    no wear/retire/refresh/spares).  The policy checks run against the
    device's *lot-effective* assignment, so a per-lot provisioned fleet
    screens each lot under its own policy.
    """
    reasons = []
    policy, policy_kwargs = spec.policy_for(device.lot)
    if policy not in SURROGATE_POLICIES:
        reasons.append(f"regime:policy:{policy}")
    elif policy_kwargs.get("with_detector", True):
        # The CRC detector gates decode and can miss; the solver models
        # unconditional decode.  ``threshold_scrub`` defaults it on.
        reasons.append("regime:detector")
    if spec.demand_write_rate is not None:
        reasons.append("regime:demand_workload")
    config = device.config
    if config.region_size != config.num_lines:
        # Multi-region devices stagger first-visit phases off the aligned
        # grid the recursion assumes.
        reasons.append("regime:multi_region")
    if config.endurance is not None:
        reasons.append("regime:endurance")
    if config.retire_hard_limit is not None:
        reasons.append("regime:retire_limit")
    if config.read_refresh:
        reasons.append("regime:read_refresh")
    if config.spares_per_region:
        reasons.append("regime:spares")
    return tuple(reasons)


def _poisson_predictive(lam, confidence: float):
    """Central predictive interval(s) on Poisson(``lam``) realizations.

    Scalar ``lam`` returns ``(int, int)``; an array returns a pair of
    ``int64`` arrays with the same truncation semantics per element
    (non-positive rates map to the degenerate ``(0, 0)`` interval).
    """
    alpha = 1.0 - confidence
    rates = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    lo = np.zeros(rates.shape, dtype=np.int64)
    hi = np.zeros(rates.shape, dtype=np.int64)
    positive = rates > 0.0
    if positive.any():
        lo[positive] = np.maximum(
            0, poisson.ppf(alpha / 2.0, rates[positive]).astype(np.int64)
        )
        hi[positive] = np.maximum(
            0, poisson.ppf(1.0 - alpha / 2.0, rates[positive]).astype(np.int64)
        )
    if np.ndim(lam) == 0:
        return int(lo[0]), int(hi[0])
    return lo, hi


def _chunk_bounds(devices: int, jobs: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` device ranges, floor-apportioned."""
    chunks = max(1, min(jobs, devices))
    base, extra = divmod(devices, chunks)
    bounds = []
    start = 0
    for i in range(chunks):
        stop = start + base + (1 if i < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _plan_chunk(payload) -> list[ScreenDecision]:
    """Worker entry for the ``jobs > 1`` fan-out (must stay picklable)."""
    spec, constraints, start, stop, batch = payload
    return _plan_decisions(spec, constraints, start, stop, batch)


def _plan_decisions(
    spec: FleetSpec,
    constraints: ScreenConstraints,
    start: int,
    stop: int,
    batch: bool,
) -> list[ScreenDecision]:
    """Classify the contiguous device range ``[start, stop)``.

    In-regime devices are grouped by their lot-effective threshold-policy
    point ``(interval, strength, threshold, cells_per_line)`` - one
    batched kernel call per group, with the Poisson predictive bounds
    vectorized over the group.  ``batch=False`` swaps the kernel for
    per-device scalar :meth:`RenewalModel.finite_horizon` calls through
    the *same* classification code, making it the reference oracle the
    ``surrogate_batch`` equivalence law compares against.  Each device's
    arithmetic is independent of its group-mates, so the decisions do not
    depend on the chunking.
    """
    horizon = spec.base_config.horizon
    horizon_hours = horizon / 3600.0
    num_lines = spec.base_config.num_lines
    # Count budget equivalent to the scaled-FIT limit (see module doc).
    count_limit = (
        None
        if constraints.fit_limit is None
        else constraints.fit_limit * horizon_hours / FIT_HOURS / spec.capacity_scale
    )

    by_index: dict[int, ScreenDecision] = {}
    groups: dict[tuple[float, int, int, int], list[tuple[int, DeviceSpec]]] = {}
    for index in range(start, stop):
        device = spec.device_spec(index)
        reasons = regime_reasons(spec, device)
        if reasons:
            by_index[index] = ScreenDecision(
                index=index, lot=device.lot,
                classification=UNCERTAIN, reasons=reasons,
            )
            continue
        # The lot-effective threshold-policy parameters (per-lot
        # provisioned fleets screen each lot under its own assignment).
        _, policy_kwargs = spec.policy_for(device.lot)
        interval = float(policy_kwargs.get("interval", 0.0))
        strength = int(policy_kwargs.get("strength", 4))
        threshold = policy_kwargs.get("threshold")
        threshold = max(1, strength - 1) if threshold is None else int(threshold)
        key = (interval, strength, threshold, device.config.cells_per_line)
        groups.setdefault(key, []).append((index, device))

    for (interval, strength, threshold, cells), entries in groups.items():
        distributions = [
            crossing_distribution_for(device.config) for _, device in entries
        ]
        if batch:
            solutions = finite_horizon_batch(
                [
                    RenewalTask(
                        distribution=distribution,
                        cells_per_line=cells,
                        interval=interval,
                        t_ecc=strength,
                        threshold=threshold,
                    )
                    for distribution in distributions
                ],
                horizon,
            )
        else:
            solutions = [
                RenewalModel(distribution, cells).finite_horizon(
                    interval, strength, threshold, horizon
                )
                for distribution in distributions
            ]

        lam = np.array([s.expected_ue for s in solutions]) * num_lines
        writes = np.array([s.expected_writes for s in solutions]) * num_lines
        no_ue = np.array([s.no_ue_probability ** num_lines for s in solutions])
        fit_scaled = lam / horizon_hours * FIT_HOURS * spec.capacity_scale
        if count_limit is not None:
            lo, hi = _poisson_predictive(lam, constraints.confidence)

        for pos, (index, device) in enumerate(entries):
            verdicts = []
            escalation = []
            if count_limit is not None:
                if hi[pos] <= count_limit:
                    verdicts.append(PASS)
                elif lo[pos] > count_limit:
                    verdicts.append(FAIL)
                else:
                    verdicts.append(UNCERTAIN)
                    escalation.append("fit_ci_overlap")
            if constraints.min_availability is not None:
                margin = constraints.availability_margin
                if no_ue[pos] >= constraints.min_availability + margin:
                    verdicts.append(PASS)
                elif no_ue[pos] < constraints.min_availability - margin:
                    verdicts.append(FAIL)
                else:
                    verdicts.append(UNCERTAIN)
                    escalation.append("availability_margin")

            if FAIL in verdicts:
                classification, reasons = FAIL, ()
            elif UNCERTAIN in verdicts:
                classification, reasons = UNCERTAIN, tuple(escalation)
            else:
                classification, reasons = PASS, ()
            by_index[index] = ScreenDecision(
                index=index,
                lot=device.lot,
                classification=classification,
                reasons=reasons,
                expected_ue=float(lam[pos]),
                expected_writes=float(writes[pos]),
                no_ue_probability=float(no_ue[pos]),
                fit_scaled=float(fit_scaled[pos]),
            )
    return [by_index[index] for index in range(start, stop)]


def plan_screen(
    spec: FleetSpec,
    constraints: ScreenConstraints,
    jobs: int = 1,
    batch: bool = True,
) -> ScreenPlan:
    """Classify every device of ``spec`` against ``constraints``.

    Pure and deterministic: the result depends only on the spec and the
    constraints - not on ``jobs`` (contiguous chunks fan out over
    :func:`repro.sim.parallel.parallel_map` and merge back in device
    order) and not on ``batch`` beyond rounding noise (``batch=False``
    replays the classification through per-device scalar renewal solves;
    the ``surrogate_batch`` equivalence law pins the agreement).  Also
    publishes ``screen_*`` gauges into the process metrics registry.
    """
    jobs = max(1, int(jobs))
    if jobs > 1 and spec.devices > 1:
        chunks = [
            (spec, constraints, chunk_start, chunk_stop, batch)
            for chunk_start, chunk_stop in _chunk_bounds(spec.devices, jobs)
        ]
        decisions = [
            decision
            for chunk in parallel_map(_plan_chunk, chunks, jobs=jobs)
            for decision in chunk
        ]
    else:
        decisions = _plan_decisions(spec, constraints, 0, spec.devices, batch)

    plan = ScreenPlan(
        spec_hash=spec.content_hash(),
        constraints=constraints,
        decisions=tuple(decisions),
    )
    counts = plan.counts()
    GLOBAL_REGISTRY.gauge("screen_devices").set(plan.devices)
    GLOBAL_REGISTRY.gauge("screen_surrogate").set(len(plan.surrogate_indices))
    GLOBAL_REGISTRY.gauge("screen_escalated").set(len(plan.escalated))
    GLOBAL_REGISTRY.gauge("screen_pass").set(counts[PASS])
    GLOBAL_REGISTRY.gauge("screen_fail").set(counts[FAIL])
    GLOBAL_REGISTRY.gauge("screen_uncertain").set(counts[UNCERTAIN])
    GLOBAL_REGISTRY.gauge("screen_mc_fraction").set(plan.mc_fraction)
    return plan
