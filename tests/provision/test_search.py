"""ProvisionSearch: grid, surrogate/MC routing, frontiers, assignments."""

from __future__ import annotations

import json

import pytest

from repro.fleet import run_campaign
from repro.obs.metrics import GLOBAL_REGISTRY
from repro.provision import (
    Candidate,
    CandidateSpace,
    ProvisionError,
    ProvisionReport,
    ProvisionSearch,
    provision_fleet,
    variant_spec,
)

from .conftest import make_spec, small_space


class TestCandidate:
    def test_key_and_kwargs_threshold(self):
        candidate = Candidate(policy="threshold", interval=3600.0, strength=4)
        assert candidate.effective_threshold == 3
        assert candidate.key == "threshold/T3600/t4/theta3"
        assert candidate.policy_kwargs() == {
            "interval": 3600.0,
            "strength": 4,
            "threshold": 3,
            "with_detector": False,
        }

    def test_basic_takes_interval_only(self):
        candidate = Candidate(policy="basic", interval=1800.0, strength=8)
        assert candidate.policy_kwargs() == {"interval": 1800.0}
        assert candidate.key == "basic/T1800"

    def test_builds_a_real_policy(self):
        candidate = Candidate(
            policy="threshold", interval=3600.0, strength=2, threshold=2
        )
        policy = candidate.build_policy()
        assert policy.scheme.t == 2

    def test_validation(self):
        with pytest.raises(ProvisionError):
            Candidate(policy="nope", interval=3600.0)
        with pytest.raises(ProvisionError):
            Candidate(policy="threshold", interval=0.0)
        with pytest.raises(ProvisionError):
            Candidate(policy="threshold", interval=3600.0, strength=2,
                      threshold=3)
        with pytest.raises(ProvisionError):
            Candidate(policy="basic", interval=3600.0, threshold=1)

    def test_round_trip(self):
        candidate = Candidate(
            policy="partial", interval=7200.0, strength=4, threshold=2
        )
        assert Candidate.from_dict(candidate.to_dict()) == candidate


class TestCandidateSpace:
    def test_interval_only_policies_deduplicate_over_strength(self):
        space = CandidateSpace(
            policies=("basic",), intervals=(3600.0,), strengths=(2, 4, 8)
        )
        assert [c.key for c in space.candidates()] == ["basic/T3600"]

    def test_thresholds_exceeding_strength_are_skipped(self):
        space = CandidateSpace(
            policies=("threshold",),
            intervals=(3600.0,),
            strengths=(2, 4),
            thresholds=(3,),
        )
        assert [c.key for c in space.candidates()] == [
            "threshold/T3600/t4/theta3"
        ]

    def test_empty_axes_rejected(self):
        with pytest.raises(ProvisionError):
            CandidateSpace(policies=())
        with pytest.raises(ProvisionError):
            CandidateSpace(policies=("threshold", "nope"))

    def test_round_trip(self):
        space = small_space(thresholds=(None, 1))
        assert CandidateSpace.from_dict(space.to_dict()) == space


class TestVariantSpec:
    def test_overrides_only_the_named_lot(self):
        spec = make_spec()
        candidate = Candidate(policy="threshold", interval=900.0, strength=2)
        variant = variant_spec(spec, "hot", candidate)
        assert variant.lot_named("hot").policy == "threshold"
        assert variant.lot_named("hot").policy_kwargs == candidate.policy_kwargs()
        assert variant.lot_named("cool").policy is None
        assert variant.policy_for("cool") == spec.policy_for("cool")

    def test_device_sampling_unchanged(self):
        # Policy overrides must never perturb the physical device draws.
        spec = make_spec()
        candidate = Candidate(policy="basic", interval=900.0)
        variant = variant_spec(spec, "hot", candidate)
        for index in range(spec.devices):
            base = spec.device_spec(index)
            varied = variant.device_spec(index)
            assert varied.nu_mu_scale == base.nu_mu_scale
            assert varied.temperature_k == base.temperature_k
            assert varied.config == base.config


class TestSearchRouting:
    def test_in_regime_grid_costs_no_mc(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        assert report.mc_device_runs == 0
        for lot in report.lots:
            assert all(e.method == "surrogate" for e in lot.evaluations)
            assert len(lot.frontier) >= 1
            assert lot.recommended in lot.frontier

    def test_out_of_regime_candidates_escalate(self):
        spec = make_spec()
        space = small_space(
            policies=("threshold", "basic"), intervals=(7200.0,)
        )
        report = ProvisionSearch(spec, space).run()
        for lot in report.lots:
            by_policy = {
                e.candidate.policy: e for e in lot.evaluations
            }
            assert by_policy["basic"].method == "mc"
            assert by_policy["basic"].mc_devices == lot.devices
            assert by_policy["threshold"].method == "surrogate"
        assert report.mc_device_runs == spec.devices  # one basic candidate

    def test_detector_candidates_escalate(self):
        space = small_space(intervals=(7200.0,), strengths=(4,),
                            with_detector=True)
        report = ProvisionSearch(make_spec(), space).run()
        assert report.mc_device_runs == make_spec().devices

    def test_extra_candidates_join_the_grid_once(self):
        spec = make_spec()
        basic = Candidate(policy="basic", interval=7200.0)
        in_grid = Candidate(policy="threshold", interval=7200.0, strength=4)
        report = ProvisionSearch(
            spec, small_space(), extra_candidates=(basic, in_grid, basic)
        ).run()
        grid = len(small_space().candidates())
        assert report.candidates_evaluated == (grid + 1) * len(spec.lots)
        # Only the out-of-regime extra pays for MC.
        assert report.mc_device_runs == spec.devices

    def test_extra_candidates_validated(self):
        with pytest.raises(ProvisionError, match="extra_candidates"):
            ProvisionSearch(
                make_spec(), small_space(), extra_candidates=("basic",)
            )

    def test_gauges_published(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        assert GLOBAL_REGISTRY.gauge("provision_lots").value == len(report.lots)
        assert (
            GLOBAL_REGISTRY.gauge("provision_candidates").value
            == report.candidates_evaluated
        )
        assert (
            GLOBAL_REGISTRY.gauge("provision_mc_device_runs").value
            == report.mc_device_runs
        )
        assert (
            GLOBAL_REGISTRY.gauge("provision_frontier_size").value
            == report.frontier_size
        )


class TestSearchResults:
    def test_screened_matches_exhaustive_frontier(self):
        # The acceptance property (the benchmark asserts it at scale):
        # surrogate-first search lands on the same per-lot frontier key
        # set as ground-truth exhaustive MC.
        spec = make_spec()
        space = small_space()
        screened = ProvisionSearch(spec, space).run()
        exhaustive = ProvisionSearch(spec, space, exhaustive=True).run()
        assert screened.mc_device_runs == 0
        assert exhaustive.mc_device_runs == (
            spec.devices * len(space.candidates())
        )
        for lot_s, lot_e in zip(screened.lots, exhaustive.lots):
            assert set(lot_s.frontier) == set(lot_e.frontier)

    def test_batch_matches_scalar_oracle(self):
        # The batched surrogate kernel is a pure optimization: the
        # per-device scalar recursion (batch=False) must land on the
        # same frontiers and recommendations, with evaluation numbers
        # agreeing to the surrogate_batch tolerance.
        spec = make_spec()
        space = small_space()
        batched = ProvisionSearch(spec, space).run()
        scalar = ProvisionSearch(spec, space, batch=False).run()
        assert batched.mc_device_runs == scalar.mc_device_runs == 0
        for lot_b, lot_s in zip(batched.lots, scalar.lots):
            assert lot_b.frontier == lot_s.frontier
            assert lot_b.recommended == lot_s.recommended
            for eval_b, eval_s in zip(lot_b.evaluations, lot_s.evaluations):
                assert eval_b.candidate == eval_s.candidate
                assert eval_b.method == eval_s.method
                assert eval_b.expected_ue == pytest.approx(
                    eval_s.expected_ue, rel=1e-9
                )
                assert eval_b.expected_writes == pytest.approx(
                    eval_s.expected_writes, rel=1e-9
                )
                assert eval_b.scrub_energy_j == pytest.approx(
                    eval_s.scrub_energy_j, rel=1e-9
                )

    def test_one_kernel_call_covers_every_lot(self, monkeypatch):
        from repro.provision import search

        calls = []
        kernel = search.finite_horizon_batch

        def counting(tasks, horizon, **kwargs):
            calls.append(len(tasks))
            return kernel(tasks, horizon, **kwargs)

        monkeypatch.setattr(search, "finite_horizon_batch", counting)
        spec = make_spec()
        space = small_space()
        report = ProvisionSearch(spec, space).run()
        assert len(report.lots) == 2
        assert calls == [spec.devices * len(space.candidates())]

    def test_jobs_do_not_change_the_report(self):
        spec = make_spec()
        space = small_space(policies=("threshold", "basic"),
                            intervals=(7200.0,))
        one = ProvisionSearch(spec, space, jobs=1).run()
        two = ProvisionSearch(spec, space, jobs=2).run()
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )

    def test_fit_limit_marks_infeasible_and_filters_frontier(self):
        spec = make_spec()
        space = small_space()
        unconstrained = ProvisionSearch(spec, space).run()
        fits = sorted(
            e.fit_scaled
            for lot in unconstrained.lots
            for e in lot.evaluations
        )
        # A budget below every candidate: everything infeasible.
        tight = ProvisionSearch(
            spec, space, fit_limit=fits[0] / 10.0
        ).run()
        for lot in tight.lots:
            assert all(not e.feasible for e in lot.evaluations)
            assert lot.frontier == ()
            assert lot.recommended is None
        with pytest.raises(ProvisionError, match="no feasible"):
            tight.assignments_spec()

    def test_convenience_wrapper(self):
        report = provision_fleet(make_spec(), small_space())
        assert isinstance(report, ProvisionReport)


class TestReportArtifacts:
    def test_json_round_trip(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        data = json.loads(report.to_json())
        rehydrated = ProvisionReport.from_dict(data)
        assert rehydrated.to_dict() == report.to_dict()

    def test_rehydrated_report_needs_spec_attached(self):
        spec = make_spec()
        report = ProvisionSearch(spec, small_space()).run()
        rehydrated = ProvisionReport.from_dict(report.to_dict())
        with pytest.raises(ProvisionError, match="attach_spec"):
            rehydrated.assignments_spec()
        rehydrated.attach_spec(spec)
        assert rehydrated.assignments_spec().to_dict() == (
            report.assignments_spec().to_dict()
        )

    def test_attach_spec_validates_hash(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        with pytest.raises(ProvisionError, match="hash mismatch"):
            ProvisionReport.from_dict(report.to_dict()).attach_spec(
                make_spec(seed=999)
            )

    def test_frontier_csv_covers_every_frontier_point(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        lines = report.frontier_csv().splitlines()
        assert lines[0].startswith("lot,candidate,recommended,fit_scaled")
        assert len(lines) == 1 + report.frontier_size

    def test_fleet_frontier_merges_lots(self):
        report = ProvisionSearch(make_spec(), small_space()).run()
        merged = report.fleet_frontier()
        assert merged  # non-empty
        assert all(":" in point.key for point in merged)


class TestAssignmentsCampaign:
    def test_assignments_spec_round_trips_and_runs(self, tmp_path):
        spec = make_spec()
        report = ProvisionSearch(spec, small_space()).run()
        assignments = report.assignments_spec()
        assert assignments.has_lot_policies
        # Round-trips through the JSON file format workers load.
        path = tmp_path / "assignments.json"
        path.write_text(json.dumps(assignments.to_dict()))
        from repro.fleet import FleetSpec

        loaded = FleetSpec.from_file(path)
        assert loaded.content_hash() == assignments.content_hash()
        # Every lot runs its recommended candidate.
        for lot in assignments.lots:
            policy, kwargs = assignments.policy_for(lot)
            recommended = report.lot(lot.name).recommended_evaluation
            assert policy == recommended.candidate.policy
            assert kwargs == recommended.candidate.policy_kwargs()

    def test_assignments_campaign_kill_resume_bit_identity(self, tmp_path):
        # The provisioned per-lot spec must ride the same durability
        # guarantees as any other campaign: an interrupted + resumed run
        # reports bit-identically to an uninterrupted one.
        report = ProvisionSearch(make_spec(), small_space()).run()
        assignments = report.assignments_spec()
        straight = run_campaign(assignments, jobs=2)
        journal = tmp_path / "assignments.jsonl"
        partial = run_campaign(
            assignments, jobs=2, checkpoint=journal, stop_after=2
        )
        assert not partial.finished
        resumed = run_campaign(
            assignments, jobs=2, checkpoint=journal, resume=True
        )
        assert resumed.finished
        assert json.dumps(
            resumed.report.to_dict(), sort_keys=True
        ) == json.dumps(straight.report.to_dict(), sort_keys=True)
