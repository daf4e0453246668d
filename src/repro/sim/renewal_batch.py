"""Batched finite-horizon renewal evaluation.

The scalar solver (:meth:`repro.sim.renewal.RenewalModel.finite_horizon`)
answers one ``(distribution, T, t, theta, horizon)`` question at a time
with a pure-Python ``O(V^2)`` recursion - microseconds per point, but a
million-device screen or a lot x candidate provisioning grid asks the
same question tens of thousands of times.  This module batches the two
expensive stages across a whole task list.  Tasks sharing a policy point
(same ``t``, ``theta`` and cells per line) form one group whatever their
visit grids ``V``: each stage runs one loop over visits out to the
group's longest grid, and each step works on the rows whose own grid is
still running (rows sorted longest first, so those are a prefix).

* **Propagation** - the per-cycle resolution vectors ``u_m`` / ``w_m``
  (probability a fresh cycle ends in a UE / write-back exactly at visit
  ``m``).  Everything that does not depend on the previous visit - the
  CDF, the per-visit crossing probability, the binomial PMF tables and
  the UE factors - is computed elementwise for all visits up front; the
  visit loop keeps only the count-state multiply-adds, in the order
  :meth:`RenewalModel._propagate` makes them, so results agree with the
  scalar solver to rounding noise (the ``surrogate_batch`` law pins
  <= 1e-9 relative).
* **Recursion** - the renewal recursion runs as per-visit array ops:
  prefix sums for the direct terms plus one stacked reversed-slice dot
  product per visit for the three convolution terms.

Each row's float operations are the same whatever its group-mates, so a
task's solution is bit-identical alone, in any batch, or split across
calls.

Propagations are memoized on ``(distribution content hash, interval,
strength, threshold, visits, tolerance)`` through the same two-level
chain as the distribution cache (:mod:`repro.sim.runner`): an in-process
LRU in front of the optional on-disk cache (``~/.cache/repro``,
``REPRO_CACHE_DIR`` / ``REPRO_NO_DISK_CACHE``).  Zero-spread lots - the
common case in screening fleets - collapse to one propagation per
(lot, policy) however many devices they hold.

Consumers: :func:`repro.screen.planner.plan_screen` (one call per
policy-parameter group) and :class:`repro.provision.search.ProvisionSearch`
(one call per search, covering every lot's candidate grid).  Batch
telemetry lands in the process metrics registry as ``surrogate_batch_*``
gauges (``surrogate_batch_groups`` counts the ``(t, theta, cells)``
groups of the last call) and the ``surrogate_memo`` counter group.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..obs.metrics import GLOBAL_REGISTRY
from .analytic import CrossingDistribution, _log_comb, tabulation_cache_dir
from .renewal import FiniteHorizonSolution, aligned_visits

#: Bump when the persisted propagation layout changes; stale entries then
#: miss on the key and degrade to recomputation, never to bad numbers.
RENEWAL_MEMO_FORMAT = 1

#: In-process propagation memo, LRU-bounded.  Entries are two ``(V,)``
#: float arrays - a few KiB each - so the cap is generous: a provisioning
#: sweep touches ``lots x candidates`` unique keys, a screening fleet one
#: per (lot, policy).
_PROPAGATION_CACHE: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()
_PROPAGATION_CACHE_MAX = 4096

#: Where each propagation request was satisfied (process-lifetime tally):
#: ``memory`` (LRU hit), ``disk`` (loaded a persisted propagation), or
#: ``computed`` (ran the batched propagation).  Duplicate keys inside one
#: batch call count once - they share a single propagation.
SURROGATE_MEMO_COUNTERS = GLOBAL_REGISTRY.group(
    "surrogate_memo", ("memory", "disk", "computed")
)


def clear_propagation_cache() -> None:
    """Drop the in-process propagation memo and reset its counters.

    The on-disk cache is untouched; tests wanting full cold starts should
    also point ``REPRO_CACHE_DIR`` at a fresh directory or set
    ``REPRO_NO_DISK_CACHE``.
    """
    _PROPAGATION_CACHE.clear()
    SURROGATE_MEMO_COUNTERS.reset()


@dataclass(frozen=True)
class RenewalTask:
    """One finite-horizon question: a device under a threshold policy."""

    #: The device's crossing-time distribution.
    distribution: CrossingDistribution
    #: Cells per line (the binomial population size).
    cells_per_line: int
    #: Scrub interval (seconds).
    interval: float
    #: ECC correction strength ``t``.
    t_ecc: int
    #: Write-back threshold ``theta`` in ``[1, t_ecc]``.
    threshold: int

    def __post_init__(self) -> None:
        if self.cells_per_line <= 0:
            raise ValueError("cells_per_line must be positive")
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not 1 <= self.threshold <= self.t_ecc:
            raise ValueError("need 1 <= threshold <= t_ecc")


# -- the propagation memo --------------------------------------------------------


def propagation_cache_key(task: RenewalTask, visits: int, tolerance: float) -> str:
    """Content hash identifying one propagated ``(u, w)`` pair.

    Everything the vectors depend on goes in: the tabulated distribution's
    content hash, the policy point, the propagation length, and the
    survival-mass tolerance.  Equal keys mean bit-identical vectors.
    """
    payload = "|".join(
        [
            f"v{RENEWAL_MEMO_FORMAT}",
            task.distribution.content_hash(),
            repr(float(task.interval)),
            repr(int(task.t_ecc)),
            repr(int(task.threshold)),
            repr(int(task.cells_per_line)),
            repr(int(visits)),
            repr(float(tolerance)),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _propagation_cache_path(key: str, directory: Path) -> Path:
    return directory / f"renewal-{key}.npz"


def _save_propagation(
    key: str, u: np.ndarray, w: np.ndarray, directory: Path
) -> Path | None:
    """Persist one propagation; best-effort, atomic (see ``save_tabulation``)."""
    path = _propagation_cache_path(key, directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.stem, suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, key=np.array(key), u=u, w=w)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError:
        return None
    return path


def _load_propagation(
    key: str, visits: int, directory: Path
) -> tuple[np.ndarray, np.ndarray] | None:
    """Load one persisted propagation; ``None`` on any miss, never raises."""
    path = _propagation_cache_path(key, directory)
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["key"]) != key:
                return None
            u = np.asarray(data["u"], dtype=np.float64)
            w = np.asarray(data["w"], dtype=np.float64)
    except Exception:
        return None
    if u.shape != (visits,) or w.shape != (visits,):
        return None
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        return None
    if (u < 0).any() or (w < 0).any() or (u + w > 1.0 + 1e-12).any():
        return None
    return u, w


def _memo_insert(key: str, value: tuple[np.ndarray, np.ndarray]) -> None:
    _PROPAGATION_CACHE[key] = value
    while len(_PROPAGATION_CACHE) > _PROPAGATION_CACHE_MAX:
        _PROPAGATION_CACHE.popitem(last=False)


# -- vectorized stages -----------------------------------------------------------

#: Floats one block of hoisted propagation tables may hold; a block spans
#: as many visits as fit, so wide screening batches stay bounded in memory.
_TABLE_BLOCK_FLOATS = 1 << 17


def _binomial_pmf_batch(n: int, p: np.ndarray, max_k: int) -> np.ndarray:
    """Binomial(``n``, ``p_r``) PMF rows for k = 0..max_k.

    Vectorized twin of :func:`repro.sim.analytic._binomial_pmf`: same
    log-space form, same degenerate ``p = 0`` / ``p = 1`` handling, one
    row per entry of ``p``.
    """
    max_k = min(max_k, n)
    ks = np.arange(max_k + 1)
    out = np.zeros((p.size, max_k + 1))
    interior = (p > 0.0) & (p < 1.0)
    if interior.any():
        pi = p[interior][:, None]
        log_terms = (
            _log_comb(n, ks)[None, :]
            + ks[None, :] * np.log(pi)
            + (n - ks)[None, :] * np.log1p(-pi)
        )
        out[interior] = np.exp(log_terms)
    out[p <= 0.0, 0] = 1.0
    if max_k == n:
        out[p >= 1.0, n] = 1.0
    return out


def _descending(lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row order by length, longest first, and how many rows run per step.

    ``running[n]`` counts the rows whose length exceeds ``n``; in the
    returned order those rows are a prefix, so a step slices ``[:k]``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    running = np.searchsorted(
        -lengths[order], -np.arange(lengths.max()), side="left"
    )
    return order, running


def _step_probabilities(
    distributions: Sequence[CrossingDistribution],
    intervals: Sequence[float],
    visits: int,
) -> np.ndarray:
    """``(R, V)`` probability that a cell surviving visit ``n`` crosses by
    visit ``n + 1``: the scalar propagation's ``p_step``, for all visits."""
    steps = np.arange(1.0, visits + 1.0)
    cdf = np.empty((len(distributions), visits))
    for r, distribution in enumerate(distributions):
        cdf[r] = distribution.cdf(intervals[r] * steps)
    prev = np.zeros_like(cdf)
    prev[:, 1:] = cdf[:, :-1]
    denom = 1.0 - prev
    safe = np.where(denom <= 0.0, 1.0, denom)
    return np.where(denom <= 0.0, 0.0, np.minimum(1.0, (cdf - prev) / safe))


def _visit_layout(
    t_ecc: int, threshold: int, cells_per_line: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Where one visit's count-state products go, in the scalar order.

    A visit of :meth:`RenewalModel._propagate` is ``theta + 2`` running
    sums of products ``survive[k] * coefficient``: each next surviving
    count ``total`` sums over ``k`` ascending, the write-back over
    ``(k, j)`` ascending, the UE over ``k`` ascending.  Column ``c`` of
    an ``(L, theta + 2)`` grid holds one sum (totals, then write, then
    UE) with its terms down the rows, zero-padded; a cumulative sum down
    the rows then adds every term in the scalar order (adding a padding
    ``+0.0`` leaves a sum's bits alone).  Returns ``source[l, c]``, the
    count state feeding each cell, and per ``k`` the first write row and
    the number of write terms.
    """
    writes = []
    position = 0
    for k in range(threshold):
        width = min(t_ecc - k, cells_per_line - k) + 1
        count = max(0, width - (threshold - k))
        writes.append((position, count))
        position += count
    source = np.zeros((max(threshold, position), threshold + 2), dtype=np.intp)
    for k, (first, count) in enumerate(writes):
        source[k, :threshold] = k
        source[k, threshold + 1] = k
        source[first:first + count, threshold] = k
    return source, writes


def _visit_tables(
    p_step: np.ndarray,
    source: np.ndarray,
    writes: list[tuple[int, int]],
    t_ecc: int,
    threshold: int,
    cells_per_line: int,
) -> np.ndarray:
    """Coefficients for every cell of :func:`_visit_layout`, per ``p_step``.

    ``p_step`` is ``(B, R)`` (visits by rows); the result is ``(B, R, L,
    theta + 2)``.  The binomial PMFs and UE factors are the ones the
    per-visit loop used to compute, evaluated elementwise for all visits
    at once.
    """
    blocks, rows = p_step.shape
    flat = np.ascontiguousarray(p_step).reshape(-1)
    table = np.zeros((flat.size,) + source.shape)
    for k, (first, count) in enumerate(writes):
        pmf = _binomial_pmf_batch(cells_per_line - k, flat, t_ecc - k)
        kept = min(threshold - k, pmf.shape[1])
        table[:, k, k:k + kept] = pmf[:, :kept]
        table[:, first:first + count, threshold] = pmf[:, threshold - k:]
        table[:, k, threshold + 1] = np.maximum(0.0, 1.0 - pmf.sum(axis=1))
    return table.reshape((blocks, rows) + source.shape)


def _propagate_batch(
    distributions: Sequence[CrossingDistribution],
    intervals: Sequence[float],
    t_ecc: int,
    threshold: int,
    cells_per_line: int,
    lengths: Sequence[int],
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cycle resolution vectors for many rows at once.

    Row ``r`` reproduces :meth:`RenewalModel._propagate` for
    ``(distributions[r], intervals[r])`` over its own ``lengths[r]``
    visits under the shared ``(t, theta, cells)`` point; the result is
    ``(R, max(lengths))``, zero past each row's length.  Everything that
    does not depend on the previous visit - the CDF, ``p_step``, the
    binomial PMFs and the UE factors - is computed up front for all
    visits (in blocks of :data:`_TABLE_BLOCK_FLOATS`), so the visit loop
    is one gather, one multiply and one cumulative sum over the rows
    still running (longest first, so those are a prefix).  Every row gets
    the bits it gets when propagated alone.  The scalar solver's early
    break (surviving mass below ``tolerance``) is applied after the loop
    as a sticky per-row mask, so rows past it emit the same zero tail
    the scalar path pads with.
    """
    rows = len(distributions)
    order, running = _descending(lengths)
    visits = running.size
    p_step = _step_probabilities(
        [distributions[r] for r in order], [intervals[r] for r in order], visits
    )
    source, writes = _visit_layout(t_ecc, threshold, cells_per_line)
    alive = np.zeros((visits, rows))
    resolved = np.zeros((visits, rows, 2))  # (write, UE) per visit and row
    survive = np.zeros((rows, threshold))
    survive[:, 0] = 1.0
    block_end = 0
    for n, k in enumerate(running.tolist()):
        if n == block_end:
            span = max(1, _TABLE_BLOCK_FLOATS // (k * source.size))
            block_start, block_end = n, min(visits, n + span)
            table = _visit_tables(
                p_step[:k, block_start:block_end].T, source, writes,
                t_ecc, threshold, cells_per_line,
            )
        state = survive[:k]
        mass = np.add.reduce(state, axis=1, out=alive[n, :k])
        if not (mass > tolerance).any():
            break
        sums = (state[:, source] * table[n - block_start, :k]).cumsum(axis=1)
        survive = sums[:, -1, :threshold]
        resolved[n, :k] = sums[:, -1, threshold:]

    active = np.logical_and.accumulate(alive > tolerance, axis=0)
    u = np.empty((rows, visits))
    w = np.empty((rows, visits))
    u[order] = np.where(active, resolved[:, :, 1], 0.0).T
    w[order] = np.where(active, resolved[:, :, 0], 0.0).T
    return u, w


def _recursion_batch(
    u: np.ndarray, w: np.ndarray, lengths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discrete renewal recursion over ``(R, V)`` resolution stacks.

    Vectorized form of :func:`repro.sim.renewal.finite_horizon_recursion`:
    the direct ``sum_m u_m`` terms are prefix sums, and the three
    convolution terms ``sum_m r_m * N(v - m)`` are one stacked
    reversed-slice row-dot per visit.  Row ``r`` runs to its own
    ``lengths[r] <= V`` and ignores its columns past it; rows are taken
    longest first so the ones still running are a prefix.  Returns the
    horizon-final ``(expected_ue, expected_writes, no_ue_probability)``
    per row.
    """
    rows, visits = u.shape
    order, running = _descending(lengths)
    u, w = u[order], w[order]
    resolve = u + w
    kernels = np.stack([resolve, resolve, w])
    direct = np.stack([
        np.cumsum(u, axis=1),
        np.cumsum(w, axis=1),
        1.0 - np.cumsum(resolve, axis=1),
    ])
    # counts[:, r, v] = (N_ue(v), N_write(v), q(v)) for row r.
    counts = np.zeros((3, rows, visits + 1))
    counts[2] = 1.0
    for v, k in enumerate(running.tolist(), start=1):
        # Column m - 1 of the reversed slice is N(v - m), m = 1..v.
        conv = np.einsum(
            "srm,srm->sr", kernels[:, :k, :v], counts[:, :k, v - 1::-1]
        )
        step = np.add(direct[:, :k, v - 1], conv, out=counts[:, :k, v])
        # q(v) is clipped into [0, 1], as the scalar recursion does.
        np.maximum(step[2], 0.0, out=step[2])
        np.minimum(step[2], 1.0, out=step[2])
    final = np.empty((3, rows))
    final[:, order] = counts[:, np.arange(rows), np.asarray(lengths)[order]]
    return final[0], final[1], final[2]


# -- the batched kernel ----------------------------------------------------------


def finite_horizon_batch(
    tasks: Iterable[RenewalTask],
    horizon: float,
    *,
    max_visits: int = 20_000,
    tolerance: float = 1e-12,
    memo: bool = True,
) -> list[FiniteHorizonSolution]:
    """Solve every task's finite-horizon question in policy-point batches.

    Drop-in for per-task :meth:`RenewalModel.finite_horizon` calls (same
    defaults, same :class:`FiniteHorizonSolution` rows, task order
    preserved).  Tasks sharing a policy point - equal ``(t_ecc,
    threshold, cells_per_line)`` - are stacked and evaluated together
    whatever their visit grids: one propagation loop and one recursion
    loop per group, each out to the group's longest grid, every row
    stopping at its own.  Within a group, tasks with equal memo keys
    share one propagation.  Each row's arithmetic is independent of its
    group-mates, so results are bit-identical however tasks are split
    across calls (or ``--jobs`` chunks).  ``memo=False`` bypasses the
    propagation memo entirely (both layers) without changing any numbers.
    """
    tasks = list(tasks)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if max_visits < 1:
        raise ValueError("max_visits must be >= 1")

    solutions: list[FiniteHorizonSolution | None] = [None] * len(tasks)
    grid_of = {
        interval: aligned_visits(horizon, interval)
        for interval in {task.interval for task in tasks}
    }
    grids = [grid_of[task.interval] for task in tasks]
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, task in enumerate(tasks):
        if grids[i] == 0:
            solutions[i] = FiniteHorizonSolution(
                interval=task.interval, horizon=horizon, visits=0,
                expected_ue=0.0, expected_writes=0.0, no_ue_probability=1.0,
            )
            continue
        key = (task.t_ecc, task.threshold, task.cells_per_line)
        groups.setdefault(key, []).append(i)

    propagated = 0
    for (t_ecc, threshold, cells), members in groups.items():
        lengths = [min(max_visits, grids[i]) for i in members]
        resolved: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(members)
        #: memo key -> member positions still waiting on a propagation.
        pending: OrderedDict[str, list[int]] = OrderedDict()
        anonymous: list[int] = []
        for pos, i in enumerate(members):
            if not memo:
                anonymous.append(pos)
                continue
            key = propagation_cache_key(tasks[i], lengths[pos], tolerance)
            if key in pending:
                pending[key].append(pos)
                continue
            cached = _PROPAGATION_CACHE.get(key)
            if cached is not None:
                SURROGATE_MEMO_COUNTERS["memory"] += 1
                _PROPAGATION_CACHE.move_to_end(key)
                resolved[pos] = cached
                continue
            directory = tabulation_cache_dir()
            if directory is not None:
                loaded = _load_propagation(key, lengths[pos], directory)
                if loaded is not None:
                    SURROGATE_MEMO_COUNTERS["disk"] += 1
                    _memo_insert(key, loaded)
                    resolved[pos] = loaded
                    continue
            pending[key] = [pos]

        representatives = [positions[0] for positions in pending.values()]
        representatives += anonymous
        if representatives:
            rep_tasks = [tasks[members[pos]] for pos in representatives]
            u2d, w2d = _propagate_batch(
                [task.distribution for task in rep_tasks],
                [task.interval for task in rep_tasks],
                t_ecc, threshold, cells,
                [lengths[pos] for pos in representatives], tolerance,
            )
            propagated += len(representatives)
            SURROGATE_MEMO_COUNTERS["computed"] += len(representatives)
            directory = tabulation_cache_dir() if memo else None
            for r, (key, positions) in enumerate(pending.items()):
                n = lengths[positions[0]]
                value = (u2d[r, :n].copy(), w2d[r, :n].copy())
                _memo_insert(key, value)
                if directory is not None:
                    _save_propagation(key, value[0], value[1], directory)
                for pos in positions:
                    resolved[pos] = value
            for r, pos in enumerate(anonymous, start=len(pending)):
                resolved[pos] = (u2d[r, : lengths[pos]], w2d[r, : lengths[pos]])

        member_grids = [grids[i] for i in members]
        stacked_u = np.zeros((len(members), max(member_grids)))
        stacked_w = np.zeros_like(stacked_u)
        for pos, (u_row, w_row) in enumerate(resolved):
            stacked_u[pos, : u_row.size] = u_row
            stacked_w[pos, : w_row.size] = w_row
        n_ue, n_write, no_ue = _recursion_batch(stacked_u, stacked_w, member_grids)
        for pos, i in enumerate(members):
            solutions[i] = FiniteHorizonSolution(
                interval=tasks[i].interval,
                horizon=horizon,
                visits=grids[i],
                expected_ue=float(n_ue[pos]),
                expected_writes=float(n_write[pos]),
                no_ue_probability=float(no_ue[pos]),
            )

    GLOBAL_REGISTRY.gauge("surrogate_batch_tasks").set(len(tasks))
    GLOBAL_REGISTRY.gauge("surrogate_batch_groups").set(len(groups))
    GLOBAL_REGISTRY.gauge("surrogate_batch_propagations").set(propagated)
    return solutions
