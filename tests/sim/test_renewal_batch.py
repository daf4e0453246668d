"""Batched renewal kernel: parity with the scalar solver, memo behavior.

Two layers of evidence that :func:`repro.sim.renewal_batch.finite_horizon_batch`
is a drop-in for per-task :meth:`RenewalModel.finite_horizon` calls:

* a hypothesis law on the recursion itself - random ``(u, w, V)``
  resolution grids through :func:`_recursion_batch` match the scalar
  :func:`finite_horizon_recursion` row by row;
* example pins on real tabulated distributions - mixed intervals,
  strengths and temperatures in one batch reproduce the scalar solver
  within the ``surrogate_batch`` tolerance.

The rest exercises the propagation memo: LRU hits, disk round-trips,
corrupted-entry degradation, within-call dedup, and the ``memo=False``
bypass all leaving the numbers untouched.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.params import CellSpec
from repro.sim import renewal_batch
from repro.sim.analytic import CrossingDistribution
from repro.sim.renewal import RenewalModel, finite_horizon_recursion
from repro.sim.renewal_batch import (
    SURROGATE_MEMO_COUNTERS,
    RenewalTask,
    _propagate_batch,
    _propagation_cache_path,
    _recursion_batch,
    clear_propagation_cache,
    finite_horizon_batch,
    propagation_cache_key,
)

#: Module-scope tabulations (~100 ms each); the tests quantify over
#: policy points and batching shapes, not over cell physics.
DISTRIBUTION = CrossingDistribution(CellSpec())
HOT = CrossingDistribution(CellSpec(), temperature_k=330.0)

#: The batch kernel reproduces the scalar float ops up to summation
#: order; the verify law pins 1e-9 and observed gaps sit around 1e-15.
REL_TOL = 1e-9


@pytest.fixture(autouse=True)
def _fresh_propagation_memo():
    """Each test starts with a cold in-process memo and zero counters."""
    clear_propagation_cache()
    yield
    clear_propagation_cache()


def _task(
    distribution=DISTRIBUTION,
    cells_per_line: int = 256,
    interval: float = 2 * units.HOUR,
    t_ecc: int = 3,
    threshold: int = 2,
) -> RenewalTask:
    return RenewalTask(
        distribution=distribution,
        cells_per_line=cells_per_line,
        interval=interval,
        t_ecc=t_ecc,
        threshold=threshold,
    )


# -- the recursion law -----------------------------------------------------------


@st.composite
def resolution_grids(draw):
    """Random ``(R, V)`` resolution stacks with per-visit ``u + w <= 1``.

    Each row draws its own length ``<= V``; its columns past that are
    filled too, so a kernel reading beyond a row's length shows.
    """
    rows = draw(st.integers(min_value=1, max_value=4))
    visits = draw(st.integers(min_value=1, max_value=12))
    lengths = draw(
        st.lists(
            st.integers(min_value=0, max_value=visits), min_size=rows, max_size=rows
        )
    )
    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    u = np.empty((rows, visits))
    w = np.empty((rows, visits))
    for r in range(rows):
        for v in range(visits):
            mass = draw(unit)
            split = draw(unit)
            u[r, v] = mass * split
            w[r, v] = mass * (1.0 - split)
    return u, w, lengths


@given(resolution_grids())
def test_recursion_batch_matches_scalar_reference(grids):
    u, w, lengths = grids
    n_ue, n_write, no_ue = _recursion_batch(u, w, lengths)
    for r, length in enumerate(lengths):
        ue_ref, write_ref, q_ref = finite_horizon_recursion(
            list(u[r]), list(w[r]), length
        )
        assert n_ue[r] == pytest.approx(ue_ref, rel=REL_TOL, abs=1e-12)
        assert n_write[r] == pytest.approx(write_ref, rel=REL_TOL, abs=1e-12)
        assert no_ue[r] == pytest.approx(q_ref, rel=REL_TOL, abs=1e-12)
        assert 0.0 <= no_ue[r] <= 1.0


@st.composite
def propagation_stacks(draw):
    """A policy point and 1-5 rows of (distribution, interval, length)."""
    t_ecc = draw(st.integers(min_value=1, max_value=4))
    threshold = draw(st.integers(min_value=1, max_value=t_ecc))
    # Four cells exercise PMFs truncated by the line size (k + j <= cells).
    cells = draw(st.sampled_from([4, 64, 256]))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([DISTRIBUTION, HOT]),
                st.sampled_from([600.0, 2 * units.HOUR, units.DAY, 10 * units.DAY]),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=5,
        )
    )
    # 1e-2 puts the early break inside most stacks.
    tolerance = draw(st.sampled_from([1e-12, 1e-2]))
    return t_ecc, threshold, cells, rows, tolerance


@given(propagation_stacks())
def test_propagate_batch_rows_match_alone(stack):
    t_ecc, threshold, cells, rows, tolerance = stack
    distributions, intervals, lengths = zip(*rows)
    u, w = _propagate_batch(
        distributions, intervals, t_ecc, threshold, cells, lengths, tolerance
    )
    assert u.shape == w.shape == (len(rows), max(lengths))
    for r, length in enumerate(lengths):
        u_alone, w_alone = _propagate_batch(
            [distributions[r]], [intervals[r]], t_ecc, threshold, cells,
            [length], tolerance,
        )
        # Bit for bit, and zero past the row's own length.
        assert u[r, :length].tobytes() == u_alone[0].tobytes()
        assert w[r, :length].tobytes() == w_alone[0].tobytes()
        assert not u[r, length:].any() and not w[r, length:].any()


# -- kernel vs scalar solver on real distributions -------------------------------


class TestKernelParity:
    def test_mixed_batch_matches_scalar_solver(self):
        horizon = 3 * units.DAY
        tasks = [
            _task(interval=2 * units.HOUR, t_ecc=3, threshold=2),
            _task(interval=4 * units.HOUR, t_ecc=4, threshold=3),
            _task(distribution=HOT, interval=2 * units.HOUR, t_ecc=3, threshold=2),
            _task(distribution=HOT, interval=6 * units.HOUR, t_ecc=4, threshold=2,
                  cells_per_line=128),
        ]
        batch = finite_horizon_batch(tasks, horizon)
        for task, solution in zip(tasks, batch):
            model = RenewalModel(task.distribution, task.cells_per_line)
            scalar = model.finite_horizon(
                task.interval, task.t_ecc, task.threshold, horizon
            )
            assert solution.visits == scalar.visits
            assert solution.interval == scalar.interval
            assert solution.expected_ue == pytest.approx(
                scalar.expected_ue, rel=REL_TOL
            )
            assert solution.expected_writes == pytest.approx(
                scalar.expected_writes, rel=REL_TOL
            )
            assert solution.no_ue_probability == pytest.approx(
                scalar.no_ue_probability, rel=REL_TOL
            )

    def test_order_preserved_and_chunking_invariant(self):
        horizon = 2 * units.DAY
        # Four grid lengths and two lots (distributions) per policy point;
        # memo=False so every call really propagates.
        tasks = [
            _task(distribution=d, interval=units.HOUR * h, t_ecc=4, threshold=t)
            for d in (DISTRIBUTION, HOT)
            for h in (1, 2, 3, 7)
            for t in (1, 2, 3)
        ]
        whole = finite_horizon_batch(tasks, horizon, memo=False)
        split = finite_horizon_batch(
            tasks[:4], horizon, memo=False
        ) + finite_horizon_batch(tasks[4:], horizon, memo=False)
        assert [s.interval for s in whole] == [t.interval for t in tasks]
        assert len({s.visits for s in whole}) == 4
        for i, task in enumerate(tasks):
            alone = finite_horizon_batch([task], horizon, memo=False)[0]
            # Bit-identical, not approx: the same per-row float ops.
            assert whole[i] == split[i] == alone

    def test_zero_visit_tasks_short_circuit(self):
        solution = finite_horizon_batch(
            [_task(interval=10 * units.DAY)], horizon=units.DAY
        )[0]
        assert solution.visits == 0
        assert solution.expected_ue == 0.0
        assert solution.expected_writes == 0.0
        assert solution.no_ue_probability == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_horizon_batch([_task()], horizon=0.0)
        with pytest.raises(ValueError):
            finite_horizon_batch([_task()], horizon=units.DAY, max_visits=0)
        with pytest.raises(ValueError):
            _task(cells_per_line=0)
        with pytest.raises(ValueError):
            _task(interval=-1.0)
        with pytest.raises(ValueError):
            _task(t_ecc=2, threshold=3)

    def test_empty_task_list(self):
        assert finite_horizon_batch([], horizon=units.DAY) == []


# -- the propagation memo --------------------------------------------------------


class TestPropagationMemo:
    def test_duplicate_tasks_share_one_propagation(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tasks = [_task()] * 5 + [_task(interval=4 * units.HOUR)]
        finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        assert SURROGATE_MEMO_COUNTERS["memory"] == 0

    def test_second_call_hits_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        tasks = [_task(), _task(interval=4 * units.HOUR)]
        first = finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        second = finite_horizon_batch(tasks, horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["memory"] == 2
        assert SURROGATE_MEMO_COUNTERS["computed"] == 2
        assert first == second

    def test_disk_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = _task()
        finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(
            task, visits=12, tolerance=1e-12
        )
        assert _propagation_cache_path(key, tmp_path).exists()
        # A cold in-process memo now loads from disk instead of computing.
        clear_propagation_cache()
        finite_horizon_batch([task], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["disk"] == 1
        assert SURROGATE_MEMO_COUNTERS["computed"] == 0

    def test_corrupted_disk_entry_degrades_to_recompute(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        task = _task()
        baseline = finite_horizon_batch([task], horizon=units.DAY)
        key = propagation_cache_key(task, visits=12, tolerance=1e-12)
        _propagation_cache_path(key, tmp_path).write_bytes(b"not an npz")
        clear_propagation_cache()
        again = finite_horizon_batch([task], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 1
        assert SURROGATE_MEMO_COUNTERS["disk"] == 0
        assert again == baseline

    def test_memo_false_bypasses_both_layers_identically(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        tasks = [_task(), _task(interval=4 * units.HOUR), _task()]
        memoized = finite_horizon_batch(tasks, horizon=units.DAY)
        clear_propagation_cache()
        raw = finite_horizon_batch(tasks, horizon=units.DAY, memo=False)
        assert raw == memoized
        assert SURROGATE_MEMO_COUNTERS["memory"] == 0
        assert SURROGATE_MEMO_COUNTERS["disk"] == 0

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        monkeypatch.setattr(renewal_batch, "_PROPAGATION_CACHE_MAX", 2)
        intervals = [units.HOUR, 2 * units.HOUR, 3 * units.HOUR]
        for interval in intervals:
            finite_horizon_batch([_task(interval=interval)], horizon=units.DAY)
        assert len(renewal_batch._PROPAGATION_CACHE) == 2
        # The first interval's entry was evicted; reusing it recomputes.
        finite_horizon_batch([_task(interval=units.HOUR)], horizon=units.DAY)
        assert SURROGATE_MEMO_COUNTERS["computed"] == 4

    def test_key_separates_every_dimension(self):
        base = _task()
        visits, tolerance = 12, 1e-12
        reference = propagation_cache_key(base, visits, tolerance)
        variants = [
            propagation_cache_key(_task(interval=units.HOUR), visits, tolerance),
            propagation_cache_key(_task(t_ecc=4, threshold=2), visits, tolerance),
            propagation_cache_key(_task(threshold=3, t_ecc=3), visits, tolerance),
            propagation_cache_key(_task(cells_per_line=128), visits, tolerance),
            propagation_cache_key(_task(distribution=HOT), visits, tolerance),
            propagation_cache_key(base, visits + 1, tolerance),
            propagation_cache_key(base, visits, 1e-9),
        ]
        assert reference not in variants
        assert len(set(variants)) == len(variants)
