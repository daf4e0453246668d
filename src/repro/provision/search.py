"""Per-lot candidate search: surrogate-first, MC only where it matters.

:class:`ProvisionSearch` sweeps a :class:`CandidateSpace` (policy x
interval x ECC strength x threshold grid) over every lot of a
:class:`repro.fleet.spec.FleetSpec` and scores each (lot, candidate)
pair along five minimized axes:

1. capacity-scaled UE FIT,
2. scrub energy per simulated GiB,
3. scrub write-backs per device (wear),
4. $/GiB of usable capacity under the candidate's ECC overhead,
5. kgCO2e/GiB (operational + amortized embodied).

Exhaustively Monte-Carlo-ing the grid costs ``lots x candidates x
devices`` engine runs.  The search instead evaluates each device
through the same exact renewal surrogate the screening planner uses
(:mod:`repro.screen.planner`): for in-regime candidates (detector-less
threshold policies on idle single-region devices) the surrogate gives
the *exact* expectation of every axis at closed-form cost, so no MC is
spent at all.  The whole grid of every lot is scored in one call to the
batched kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`)
- each device's crossing distribution is tabulated once and its
propagation memoized across candidates.  A device escalates to the real
engine only when

* the candidate is out of the surrogate's validated regime (adaptive/
  combined/partial policies, detector-gated decode, demand traffic,
  wear/retire/refresh/spares), as judged by
  :func:`repro.screen.planner.regime_reasons` on the candidate-variant
  spec; or
* a ``fit_limit`` is set and the device's Poisson predictive interval
  straddles the per-device count budget (the verdict is genuinely
  uncertain at expectation level).

Escalated devices run through ``CampaignRunner(variant, indices=...)``
- the same subset path the screening report uses - so results are
bit-identical to a full campaign of the variant spec, independent of
``jobs``.  ``exhaustive=True`` forces every device of every candidate
to MC; the benchmark asserts the screened search reaches the same
per-lot frontier with a fraction of the MC device-runs.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from ..fleet.campaign import CampaignRunner
from ..fleet.report import FIT_HOURS, per_gib
from ..fleet.spec import DeviceSpec, FleetSpec, Lot
from ..obs.metrics import GLOBAL_REGISTRY
from ..pcm.energy import OperationCosts
from ..screen.planner import _poisson_predictive, regime_reasons
from ..sim.parallel import POLICY_FACTORIES
from ..sim.renewal import FiniteHorizonSolution, RenewalModel
from ..sim.renewal_batch import RenewalTask, finite_horizon_batch
from ..sim.runner import crossing_distribution_for
from .cost import CostModel
from .knee import knee_point
from .pareto import ParetoPoint, pareto_frontier

logger = logging.getLogger(__name__)


class ProvisionError(ValueError):
    """A provisioning request is malformed."""


#: Evaluation provenance labels.
SURROGATE, MC, MIXED = "surrogate", "mc", "mixed"

#: The objective axes, in :meth:`CandidateEvaluation.axes` order.
AXES = (
    "fit_scaled",
    "energy_per_gib_j",
    "writes_per_device",
    "dollars_per_gib",
    "carbon_per_gib_kg",
)

#: Policies that take a write-back threshold parameter.
_THRESHOLD_POLICIES = frozenset({"threshold", "partial"})
#: Policies whose factory takes only ``interval``.
_INTERVAL_ONLY_POLICIES = frozenset({"basic"})


@dataclass(frozen=True)
class Candidate:
    """One point of the provisioning grid: a concrete scrub assignment."""

    policy: str
    interval: float
    strength: int = 4
    #: Write-back threshold for the threshold/partial families; ``None``
    #: resolves to the family default ``max(1, strength - 1)``.
    threshold: int | None = None
    #: Whether threshold-family candidates keep the CRC detector.  Off by
    #: default: detector-less threshold scrub is the surrogate-exact
    #: regime, which is what makes the search cheap.
    with_detector: bool = False

    def __post_init__(self) -> None:
        if self.policy not in POLICY_FACTORIES:
            raise ProvisionError(
                f"unknown candidate policy {self.policy!r}; "
                f"available: {sorted(POLICY_FACTORIES)}"
            )
        if self.interval <= 0:
            raise ProvisionError("candidate interval must be positive")
        if self.strength < 1:
            raise ProvisionError("candidate strength must be >= 1")
        if self.threshold is not None:
            if self.policy not in _THRESHOLD_POLICIES:
                raise ProvisionError(
                    f"policy {self.policy!r} takes no threshold parameter"
                )
            if not 1 <= self.threshold <= self.strength:
                raise ProvisionError(
                    f"threshold {self.threshold} outside [1, {self.strength}]"
                )

    @property
    def effective_threshold(self) -> int | None:
        """The resolved write-back threshold (``None`` off-family)."""
        if self.policy not in _THRESHOLD_POLICIES:
            return None
        if self.threshold is not None:
            return self.threshold
        return max(1, self.strength - 1)

    @property
    def key(self) -> str:
        """Stable identifier; doubles as the Pareto point key."""
        parts = [self.policy, f"T{self.interval:g}"]
        if self.policy not in _INTERVAL_ONLY_POLICIES:
            parts.append(f"t{self.strength}")
        theta = self.effective_threshold
        if theta is not None:
            parts.append(f"theta{theta}")
        if self.policy == "threshold" and self.with_detector:
            parts.append("det")
        return "/".join(parts)

    def policy_kwargs(self) -> dict:
        """Factory kwargs; also the per-lot ``policy_kwargs`` override."""
        if self.policy in _INTERVAL_ONLY_POLICIES:
            return {"interval": self.interval}
        kwargs: dict = {"interval": self.interval, "strength": self.strength}
        theta = self.effective_threshold
        if theta is not None:
            kwargs["threshold"] = theta
        if self.policy == "threshold":
            kwargs["with_detector"] = self.with_detector
        return kwargs

    def build_policy(self):
        """Instantiate the scrub policy (for its ECC scheme metadata)."""
        return POLICY_FACTORIES[self.policy](**self.policy_kwargs())

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "interval": float(self.interval),
            "strength": int(self.strength),
            "threshold": self.threshold,
            "with_detector": self.with_detector,
            "key": self.key,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Candidate":
        return cls(
            policy=str(data["policy"]),
            interval=float(data["interval"]),
            strength=int(data.get("strength", 4)),
            threshold=(
                None if data.get("threshold") is None else int(data["threshold"])
            ),
            with_detector=bool(data.get("with_detector", False)),
        )


@dataclass(frozen=True)
class CandidateSpace:
    """The provisioning grid: the cross product, minus redundant points.

    Combinations that collapse to the same factory call (``basic`` at
    two strengths) are deduplicated, and threshold values exceeding a
    combination's strength are skipped rather than rejected, so a single
    rectangular grid spec covers ragged per-policy parameter spaces.
    """

    policies: tuple[str, ...] = ("threshold",)
    intervals: tuple[float, ...] = (1800.0, 3600.0, 7200.0)
    strengths: tuple[int, ...] = (2, 4)
    thresholds: tuple[int | None, ...] = (None,)
    with_detector: bool = False

    def __post_init__(self) -> None:
        if not self.policies or not self.intervals or not self.strengths:
            raise ProvisionError(
                "candidate space needs at least one policy, interval, "
                "and strength"
            )
        if not self.thresholds:
            raise ProvisionError(
                "candidate space needs at least one threshold (None = auto)"
            )
        for policy in self.policies:
            if policy not in POLICY_FACTORIES:
                raise ProvisionError(
                    f"unknown policy {policy!r} in candidate space; "
                    f"available: {sorted(POLICY_FACTORIES)}"
                )

    def candidates(self) -> tuple[Candidate, ...]:
        """The deduplicated grid, in deterministic generation order."""
        seen: dict[tuple, Candidate] = {}
        grid = itertools.product(
            self.policies, self.intervals, self.strengths, self.thresholds
        )
        for policy, interval, strength, threshold in grid:
            if threshold is not None and (
                policy not in _THRESHOLD_POLICIES or threshold > strength
            ):
                continue
            candidate = Candidate(
                policy=policy,
                interval=float(interval),
                strength=int(strength),
                threshold=threshold,
                with_detector=(
                    self.with_detector if policy == "threshold" else False
                ),
            )
            dedup = (policy, tuple(sorted(candidate.policy_kwargs().items())))
            seen.setdefault(dedup, candidate)
        return tuple(seen.values())

    def to_dict(self) -> dict:
        return {
            "policies": list(self.policies),
            "intervals": [float(v) for v in self.intervals],
            "strengths": [int(v) for v in self.strengths],
            "thresholds": [
                None if v is None else int(v) for v in self.thresholds
            ],
            "with_detector": self.with_detector,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateSpace":
        defaults = cls()
        return cls(
            policies=tuple(
                str(p) for p in data.get("policies", defaults.policies)
            ),
            intervals=tuple(
                float(v) for v in data.get("intervals", defaults.intervals)
            ),
            strengths=tuple(
                int(v) for v in data.get("strengths", defaults.strengths)
            ),
            thresholds=tuple(
                None if v is None else int(v)
                for v in data.get("thresholds", defaults.thresholds)
            ),
            with_detector=bool(data.get("with_detector", False)),
        )


@dataclass(frozen=True)
class CandidateEvaluation:
    """One (lot, candidate) score along every objective axis."""

    lot: str
    candidate: Candidate
    #: Devices the lot holds / resolved by surrogate / run through MC.
    devices: int
    surrogate_devices: int
    mc_devices: int
    #: Composed lot totals (surrogate expectations + MC realizations).
    expected_ue: float
    expected_writes: float
    scrub_energy_j: float
    #: The objective axes (see :data:`AXES`).
    fit_scaled: float
    energy_per_gib_j: float
    writes_per_device: float
    dollars_per_gib: float
    carbon_per_gib_kg: float
    #: ``False`` when a ``fit_limit`` was set and this candidate's
    #: composed FIT exceeds it - excluded from the frontier.
    feasible: bool = True
    infeasible_reason: str = ""

    @property
    def method(self) -> str:
        if self.mc_devices == 0:
            return SURROGATE
        if self.surrogate_devices == 0:
            return MC
        return MIXED

    def axes(self) -> tuple[float, ...]:
        return (
            self.fit_scaled,
            self.energy_per_gib_j,
            self.writes_per_device,
            self.dollars_per_gib,
            self.carbon_per_gib_kg,
        )

    def point(self) -> ParetoPoint:
        return ParetoPoint(key=self.candidate.key, values=self.axes())

    def to_dict(self) -> dict:
        return {
            "lot": self.lot,
            "candidate": self.candidate.to_dict(),
            "devices": self.devices,
            "surrogate_devices": self.surrogate_devices,
            "mc_devices": self.mc_devices,
            "method": self.method,
            "expected_ue": self.expected_ue,
            "expected_writes": self.expected_writes,
            "scrub_energy_j": self.scrub_energy_j,
            "fit_scaled": self.fit_scaled,
            "energy_per_gib_j": self.energy_per_gib_j,
            "writes_per_device": self.writes_per_device,
            "dollars_per_gib": self.dollars_per_gib,
            "carbon_per_gib_kg": self.carbon_per_gib_kg,
            "feasible": self.feasible,
            "infeasible_reason": self.infeasible_reason,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateEvaluation":
        return cls(
            lot=str(data["lot"]),
            candidate=Candidate.from_dict(data["candidate"]),
            devices=int(data["devices"]),
            surrogate_devices=int(data["surrogate_devices"]),
            mc_devices=int(data["mc_devices"]),
            expected_ue=float(data["expected_ue"]),
            expected_writes=float(data["expected_writes"]),
            scrub_energy_j=float(data["scrub_energy_j"]),
            fit_scaled=float(data["fit_scaled"]),
            energy_per_gib_j=float(data["energy_per_gib_j"]),
            writes_per_device=float(data["writes_per_device"]),
            dollars_per_gib=float(data["dollars_per_gib"]),
            carbon_per_gib_kg=float(data["carbon_per_gib_kg"]),
            feasible=bool(data.get("feasible", True)),
            infeasible_reason=str(data.get("infeasible_reason", "")),
        )


@dataclass(frozen=True)
class LotProvision:
    """One lot's full evaluation sweep, frontier, and recommendation."""

    lot: str
    devices: int
    evaluations: tuple[CandidateEvaluation, ...]
    #: Candidate keys on the feasible non-dominated frontier, in the
    #: frontier's canonical order.
    frontier: tuple[str, ...]
    #: The knee candidate's key; ``None`` when no candidate is feasible
    #: (the lot keeps its existing assignment).
    recommended: str | None

    def evaluation(self, key: str) -> CandidateEvaluation:
        for evaluation in self.evaluations:
            if evaluation.candidate.key == key:
                return evaluation
        raise KeyError(f"lot {self.lot!r}: no candidate {key!r}")

    @property
    def recommended_evaluation(self) -> CandidateEvaluation | None:
        return None if self.recommended is None else self.evaluation(
            self.recommended
        )

    def frontier_points(self) -> tuple[ParetoPoint, ...]:
        return tuple(self.evaluation(key).point() for key in self.frontier)

    def to_dict(self) -> dict:
        return {
            "lot": self.lot,
            "devices": self.devices,
            "evaluations": [e.to_dict() for e in self.evaluations],
            "frontier": list(self.frontier),
            "recommended": self.recommended,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LotProvision":
        return cls(
            lot=str(data["lot"]),
            devices=int(data["devices"]),
            evaluations=tuple(
                CandidateEvaluation.from_dict(e) for e in data["evaluations"]
            ),
            frontier=tuple(str(k) for k in data["frontier"]),
            recommended=(
                None
                if data.get("recommended") is None
                else str(data["recommended"])
            ),
        )


def variant_spec(
    spec: FleetSpec, lot_name: str, candidate: Candidate
) -> FleetSpec:
    """The fleet spec with ``lot_name`` overridden to ``candidate``.

    Only the named lot changes; device parameter sampling is untouched
    (draws depend on ``[seed, index]`` and lot process parameters only),
    so the variant's devices are physically identical to the base
    fleet's and differ purely in scrub policy.
    """
    lots = tuple(
        replace(
            lot,
            policy=candidate.policy,
            policy_kwargs=candidate.policy_kwargs(),
        )
        if lot.name == lot_name
        else lot
        for lot in spec.lots
    )
    return replace(spec, lots=lots)


class ProvisionSearch:
    """Sweep a candidate grid over every lot; see the module docstring.

    Parameters
    ----------
    spec:
        The base fleet.  Existing per-lot overrides are replaced lot by
        lot while that lot is being evaluated and untouched otherwise.
    space:
        The candidate grid.
    cost_model:
        $/GiB and carbon accounting (:class:`CostModel`).
    fit_limit:
        Optional per-device capacity-scaled FIT budget.  Candidates
        whose composed FIT exceeds it are marked infeasible and excluded
        from the frontier; devices whose Poisson predictive interval
        straddles the equivalent count budget escalate to MC.
    confidence:
        Central coverage of the Poisson predictive interval.
    jobs:
        Worker processes for MC escalations (results are identical for
        any value).
    exhaustive:
        Force every device of every candidate through the MC engine
        (the ground-truth mode the benchmark compares against).
    extra_candidates:
        Hand-picked :class:`Candidate` entries appended to the grid
        (deduplicated against it) - e.g. one DRAM-style ``basic``
        baseline without paying for it at every grid interval.
    batch:
        Evaluate each lot's whole candidate grid through the batched
        renewal kernel (:func:`repro.sim.renewal_batch.finite_horizon_batch`,
        the default).  ``batch=False`` keeps the per-pair scalar
        :meth:`RenewalModel.finite_horizon` path as the reference oracle
        (identical frontiers up to rounding noise); either way each
        device's distribution is tabulated once per lot and reused
        across every candidate.
    """

    def __init__(
        self,
        spec: FleetSpec,
        space: CandidateSpace | None = None,
        cost_model: CostModel | None = None,
        fit_limit: float | None = None,
        confidence: float = 0.95,
        jobs: int = 1,
        exhaustive: bool = False,
        extra_candidates: tuple = (),
        batch: bool = True,
    ):
        if fit_limit is not None and fit_limit <= 0:
            raise ProvisionError("fit_limit must be positive (or None)")
        if not 0 < confidence < 1:
            raise ProvisionError("confidence must be in (0, 1)")
        self.spec = spec
        self.space = CandidateSpace() if space is None else space
        self.cost_model = CostModel() if cost_model is None else cost_model
        self.fit_limit = fit_limit
        self.confidence = confidence
        self.jobs = max(1, jobs)
        self.exhaustive = exhaustive
        self.batch = batch
        self.extra_candidates = tuple(extra_candidates)
        for candidate in self.extra_candidates:
            if not isinstance(candidate, Candidate):
                raise ProvisionError(
                    "extra_candidates must be Candidate instances, got "
                    f"{candidate!r}"
                )

    # -- surrogate evaluation --------------------------------------------------

    def _surrogate_costs(self, candidate: Candidate) -> OperationCosts:
        scheme = candidate.build_policy().scheme
        return OperationCosts.for_line(
            self.spec.base_config.energy,
            self.spec.base_config.line,
            ecc_bits=scheme.total_overhead_bits,
            ecc_strength=scheme.t,
        )

    def _evaluate_surrogate(
        self,
        candidates: list[Candidate],
        lots: list[tuple[list[FleetSpec], list[DeviceSpec], list]],
    ) -> list[tuple[dict[tuple[int, int], FiniteHorizonSolution], list[list[int]]]]:
        """Score every lot's whole candidate grid in a single batched call.

        ``lots`` holds, per lot, the candidate variants, the devices and
        their distributions (tabulated once, threaded in by the caller).
        Returns, per lot, ``(solutions, regime_escalated)``:
        ``solutions`` maps every in-regime ``(candidate_pos,
        device_pos)`` pair to its exact finite-horizon solution, and
        ``regime_escalated`` lists, per candidate, the device positions
        that must go to MC regardless of any budget check (out of the
        surrogate's regime, or ``exhaustive``).  One
        :func:`finite_horizon_batch` call covers the grid of every lot,
        so rows of different lots sharing a policy point run in one
        visit loop.  With ``batch=False`` the same pairs are solved
        through per-pair scalar :meth:`RenewalModel.finite_horizon`
        calls, one model per device.
        """
        horizon = self.spec.base_config.horizon
        tasks: list[RenewalTask] = []
        owners: list[tuple[int, int, int]] = []
        escalations: list[list[list[int]]] = []
        for li, (variants, devices, distributions) in enumerate(lots):
            regime_escalated: list[list[int]] = []
            for ci, (candidate, variant) in enumerate(zip(candidates, variants)):
                escalated: list[int] = []
                for pos, device in enumerate(devices):
                    if self.exhaustive or regime_reasons(variant, device):
                        escalated.append(pos)
                        continue
                    owners.append((li, ci, pos))
                    tasks.append(
                        RenewalTask(
                            distribution=distributions[pos],
                            cells_per_line=device.config.cells_per_line,
                            interval=candidate.interval,
                            t_ecc=candidate.strength,
                            threshold=candidate.effective_threshold,
                        )
                    )
                regime_escalated.append(escalated)
            escalations.append(regime_escalated)
        if self.batch:
            solved = finite_horizon_batch(tasks, horizon)
        else:
            models: dict[tuple[int, int], RenewalModel] = {}
            solved = []
            for (li, _, pos), task in zip(owners, tasks):
                model = models.get((li, pos))
                if model is None:
                    model = models[li, pos] = RenewalModel(
                        task.distribution, task.cells_per_line
                    )
                solved.append(
                    model.finite_horizon(
                        task.interval, task.t_ecc, task.threshold, horizon
                    )
                )
        solutions: list[dict[tuple[int, int], FiniteHorizonSolution]] = [
            {} for _ in lots
        ]
        for (li, ci, pos), solution in zip(owners, solved):
            solutions[li][ci, pos] = solution
        return list(zip(solutions, escalations))

    # -- per-candidate evaluation ---------------------------------------------

    def _evaluate_candidate(
        self,
        lot: Lot,
        candidate: Candidate,
        variant: FleetSpec,
        indices: tuple[int, ...],
        devices: list[DeviceSpec],
        regime_escalated: list[int],
        solutions: dict[tuple[int, int], FiniteHorizonSolution],
        ci: int,
    ) -> CandidateEvaluation:
        """Compose one (lot, candidate) evaluation from batched solutions.

        Energy is closed-form: a detector-less threshold policy reads
        and decodes every line on every visit (deterministic), and only
        the write-back count is stochastic, with exact expectation from
        the renewal solution.
        """
        spec = self.spec
        horizon = spec.base_config.horizon
        horizon_hours = horizon / 3600.0
        count_limit = (
            None
            if self.fit_limit is None
            else self.fit_limit * horizon_hours / FIT_HOURS / spec.capacity_scale
        )

        costs = self._surrogate_costs(candidate)
        members = [pos for pos in range(len(devices)) if (ci, pos) in solutions]
        straddle: set[int] = set()
        if count_limit is not None and members:
            lam = np.array(
                [
                    solutions[(ci, pos)].expected_ue
                    * devices[pos].config.num_lines
                    for pos in members
                ]
            )
            lo, hi = _poisson_predictive(lam, self.confidence)
            straddle = {
                pos
                for i, pos in enumerate(members)
                # Straddles the budget: the expectation alone cannot
                # settle feasibility for this device.
                if lo[i] <= count_limit < hi[i]
            }

        regime_set = set(regime_escalated)
        escalated: list[int] = []
        total_ue = total_writes = total_energy = 0.0
        for pos, index in enumerate(indices):
            if pos in regime_set or pos in straddle:
                escalated.append(index)
                continue
            solution = solutions[(ci, pos)]
            num_lines = devices[pos].config.num_lines
            total_ue += solution.expected_ue * num_lines
            total_writes += solution.expected_writes * num_lines
            total_energy += num_lines * (
                solution.visits * (costs.read_energy + costs.decode_energy)
                + solution.expected_writes * costs.write_energy
            )

        if escalated:
            outcome = CampaignRunner(
                variant, jobs=self.jobs, indices=escalated
            ).run()
            for record in outcome.records:
                summary = record.summary
                total_ue += float(summary.get("uncorrectable", 0.0))
                total_writes += float(summary.get("scrub_writes", 0.0))
                total_energy += float(summary.get("scrub_energy_j", 0.0))

        devices = len(indices)
        device_hours = devices * horizon_hours
        fit_scaled = (
            total_ue / device_hours * FIT_HOURS * spec.capacity_scale
            if device_hours
            else 0.0
        )
        energy_per_gib = per_gib(
            total_energy,
            devices * spec.simulated_gib_per_device,
            f"lot {lot.name!r} candidate {candidate.key!r} energy/GiB",
        )
        scheme = candidate.build_policy().scheme
        data_bits = spec.base_config.line.data_bits
        dollars = self.cost_model.dollars_per_usable_gib(
            scheme.total_overhead_bits, data_bits
        )
        carbon = self.cost_model.carbon_per_gib(
            energy_per_gib, horizon, scheme.total_overhead_bits, data_bits
        )
        feasible, reason = True, ""
        if self.fit_limit is not None and fit_scaled > self.fit_limit:
            feasible = False
            reason = (
                f"fit_scaled {fit_scaled:.3g} exceeds limit "
                f"{self.fit_limit:.3g}"
            )
        return CandidateEvaluation(
            lot=lot.name,
            candidate=candidate,
            devices=devices,
            surrogate_devices=devices - len(escalated),
            mc_devices=len(escalated),
            expected_ue=total_ue,
            expected_writes=total_writes,
            scrub_energy_j=total_energy,
            fit_scaled=fit_scaled,
            energy_per_gib_j=energy_per_gib,
            writes_per_device=total_writes / devices if devices else 0.0,
            dollars_per_gib=dollars,
            carbon_per_gib_kg=carbon,
            feasible=feasible,
            infeasible_reason=reason,
        )

    # -- the sweep -------------------------------------------------------------

    def run(self):
        """Evaluate the grid for every lot; returns a ProvisionReport."""
        from .report import ProvisionReport

        candidates = list(self.space.candidates())
        grid_keys = {
            (c.policy, tuple(sorted(c.policy_kwargs().items())))
            for c in candidates
        }
        for candidate in self.extra_candidates:
            dedup = (
                candidate.policy,
                tuple(sorted(candidate.policy_kwargs().items())),
            )
            if dedup not in grid_keys:
                grid_keys.add(dedup)
                candidates.append(candidate)
        if not candidates:
            raise ProvisionError("candidate space is empty after dedup")
        prepared = []
        for lot in self.spec.lots:
            indices = self.spec.lot_indices(lot.name)
            # One device list and one tabulated distribution per device
            # for the whole grid: candidate variants never change device
            # physics (policy is not part of the sampled config), and
            # holding the list pins the distributions past the runner
            # LRU's reach while every candidate reuses them.
            devices = [self.spec.device_spec(index) for index in indices]
            distributions = [
                crossing_distribution_for(device.config) for device in devices
            ]
            variants = [
                variant_spec(self.spec, lot.name, candidate)
                for candidate in candidates
            ]
            prepared.append((lot, indices, variants, devices, distributions))
        surrogate = self._evaluate_surrogate(
            candidates, [entry[2:] for entry in prepared]
        )
        lots = []
        mc_device_runs = 0
        surrogate_candidates = 0
        escalated_candidates = 0
        for (lot, indices, variants, devices, _), (solutions, regime_escalated) in zip(
            prepared, surrogate
        ):
            evaluations = tuple(
                self._evaluate_candidate(
                    lot, candidate, variants[ci], indices, devices,
                    regime_escalated[ci], solutions, ci,
                )
                for ci, candidate in enumerate(candidates)
            )
            mc_device_runs += sum(e.mc_devices for e in evaluations)
            surrogate_candidates += sum(
                1 for e in evaluations if e.method == SURROGATE
            )
            escalated_candidates += sum(
                1 for e in evaluations if e.mc_devices > 0
            )
            frontier = pareto_frontier(
                e.point() for e in evaluations if e.feasible
            )
            recommended = (
                knee_point(frontier).key if frontier else None
            )
            lots.append(
                LotProvision(
                    lot=lot.name,
                    devices=len(indices),
                    evaluations=evaluations,
                    frontier=tuple(p.key for p in frontier),
                    recommended=recommended,
                )
            )
            logger.info(
                "provision %s/%s: %d candidates, frontier %d, knee %s",
                self.spec.name, lot.name, len(evaluations),
                len(lots[-1].frontier), recommended,
            )

        report = ProvisionReport(
            name=self.spec.name,
            spec_hash=self.spec.content_hash(),
            devices=self.spec.devices,
            horizon=self.spec.base_config.horizon,
            fit_limit=self.fit_limit,
            confidence=self.confidence,
            exhaustive=self.exhaustive,
            cost_model=self.cost_model,
            space=self.space,
            lots=tuple(lots),
            mc_device_runs=mc_device_runs,
        ).attach_spec(self.spec)
        total_evals = len(candidates) * len(self.spec.lots)
        GLOBAL_REGISTRY.gauge("provision_lots").set(len(self.spec.lots))
        GLOBAL_REGISTRY.gauge("provision_candidates").set(total_evals)
        GLOBAL_REGISTRY.gauge("provision_surrogate_candidates").set(
            surrogate_candidates
        )
        GLOBAL_REGISTRY.gauge("provision_escalated_candidates").set(
            escalated_candidates
        )
        GLOBAL_REGISTRY.gauge("provision_mc_device_runs").set(mc_device_runs)
        GLOBAL_REGISTRY.gauge("provision_frontier_size").set(
            sum(len(lot.frontier) for lot in lots)
        )
        return report


def provision_fleet(
    spec: FleetSpec,
    space: CandidateSpace | None = None,
    cost_model: CostModel | None = None,
    fit_limit: float | None = None,
    confidence: float = 0.95,
    jobs: int = 1,
    exhaustive: bool = False,
):
    """One-call convenience wrapper around :class:`ProvisionSearch`."""
    return ProvisionSearch(
        spec,
        space=space,
        cost_model=cost_model,
        fit_limit=fit_limit,
        confidence=confidence,
        jobs=jobs,
        exhaustive=exhaustive,
    ).run()
