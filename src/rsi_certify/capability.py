"""Canonical capability metric built from benchmark loss series.

The capability index aggregates per-task losses into
``Itilde(t) = -sum_tau w_tau * log(L_tau(t) / L*_tau)`` and pins the affine
freedom by subtracting the value at a reference time, so I(t_ref) = 0 and a
unit step means the weighted geometric-mean loss ratio shrank by a factor e.
Rates are taken by finite differences on the sample grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import series as ts
from .errors import (GridMismatch, MissingTask, NonPositiveValue,
                     RefOutOfRange, RepeatedTask)

WEIGHT_SUM_TOL = 1e-12
AFFINE_TOL = 1e-6   # largest elasticity change an affine map may cause


@dataclass(frozen=True)
class TaskSpec:
    """One benchmark task: positive weight and a positive loss floor."""

    id: str
    weight: float
    floor: float

    def __post_init__(self):
        if self.weight <= 0:
            raise ValueError(f"task {self.id!r}: weight must be positive")
        if self.floor <= 0:
            raise ValueError(f"task {self.id!r}: floor must be positive")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A frozen benchmark family: weighted tasks with loss floors, plus the
    reference time where the canonical index is pinned to zero."""

    tasks: tuple[TaskSpec, ...]
    t_ref: float

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        total = sum(t.weight for t in self.tasks)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"task weights sum to {total!r}; must be 1")
        ids = [t.id for t in self.tasks]
        if repeated := [i for i in ids if ids.count(i) > 1]:
            raise RepeatedTask(f"task {repeated[0]!r} is listed more than once")

    def to_json_dict(self) -> dict:
        return {
            "tasks": [{"id": t.id, "weight": t.weight, "floor": t.floor}
                      for t in self.tasks],
            "t_ref": self.t_ref,
        }


def loss_index(losses: list[ts.TimeSeries], spec: BenchmarkSpec) -> ts.TimeSeries:
    """Aggregate per-task losses into the raw capability index Itilde.

    Loss series and the tasks in ``spec`` must match one to one by name
    (the task id), all on a common grid.  Losses below their floor are
    legal (floors are conservative) but emit a warning since they usually
    signal a revision.
    """
    names = [s.name for s in losses]
    if repeated := [n for n in names if names.count(n) > 1]:
        raise RepeatedTask(f"more than one loss series named {repeated[0]!r}")
    by_name = dict(zip(names, losses))
    picked = []
    for task in spec.tasks:
        if task.id not in by_name:
            raise MissingTask(f"no loss series named {task.id!r}")
        picked.append((task, by_name[task.id]))
    if extra := [n for n in names if n not in {t.id for t in spec.tasks}]:
        raise MissingTask(f"loss series {extra[0]!r} is not a benchmark task")

    base = picked[0][1]
    total = np.zeros_like(base.values)
    for task, s in picked:
        ts.require_same_grid(s, base)
        if np.any(s.values <= 0):
            raise NonPositiveValue(f"loss series {s.name!r} must be positive")
        if np.any(s.values < task.floor):
            warnings.warn(
                f"loss series {task.id!r} dips below its floor {task.floor}; "
                "treating as data revision, not an error", stacklevel=2)
        total += task.weight * np.log(s.values / task.floor)

    version = "+".join(sorted(s.snapshot_version for _, s in picked if s.snapshot_version))
    return ts.TimeSeries("itilde", "nat", base.t, -total, None, version)


def capability_rate(I: ts.TimeSeries) -> ts.TimeSeries:
    """Idot of a capability series on its grid less the last point: a
    forward difference at the first point, central differences on the
    interior."""
    t, v = I.t, I.values
    if t.size < 2:
        raise GridMismatch("need at least two samples to differentiate")
    rate = np.empty(t.size - 1)
    rate[0] = (v[1] - v[0]) / (t[1] - t[0])
    rate[1:] = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    return ts.TimeSeries("capability_rate", "nat/s", t[:-1], rate, None,
                         I.snapshot_version)


def canonicalize(itilde: ts.TimeSeries, spec: BenchmarkSpec) -> ts.TimeSeries:
    """Pin the affine freedom: I(t) = Itilde(t) - Itilde(t_ref).

    The index is already in nats, so the slope calibration is the identity
    and only the offset is removed.
    """
    if not itilde.t[0] <= spec.t_ref <= itilde.t[-1]:
        raise RefOutOfRange(
            f"t_ref={spec.t_ref} outside sampled range "
            f"[{itilde.t[0]}, {itilde.t[-1]}]")
    offset = float(np.interp(spec.t_ref, itilde.t, itilde.values))
    return ts.TimeSeries("capability", "nat", itilde.t, itilde.values - offset,
                         None, itilde.snapshot_version)


@dataclass(frozen=True)
class AffineCheckResult:
    ok: bool
    max_deviation: float
    windows_compared: int
    detail: str = ""

    def __bool__(self):
        return self.ok


def affine_invariance_check(I: ts.TimeSeries, Idot: ts.TimeSeries, a: float,
                            b: float, window: float,
                            min_abscissa: float = 0.0) -> AffineCheckResult:
    """Check that the feedback elasticity is unchanged under I -> a*I + b.

    Idot lies on I's grid, less any trailing points (as capability_rate
    gives it).  Computes the rolling elasticity of Idot against I on both
    the original and the transformed series, restricted to windows where both
    transformed and original states exceed ``min_abscissa`` and the rate is
    positive, and compares slopes at common centers.  Returns a result that
    is falsy (with diagnostics) on mismatch instead of raising.
    """
    if a <= 0:
        raise ValueError("affine scale a must be positive")
    n = len(Idot)
    i_vals = I.values[:n]
    idot_vals = Idot.values
    ti = I.t[:n]

    mask = (idot_vals > 0) & (i_vals > min_abscissa) \
        & (a * i_vals + b > min_abscissa) & (i_vals > 0) & (a * i_vals + b > 0)
    if mask.sum() < 3:
        return AffineCheckResult(False, float("inf"), 0,
                                 "fewer than 3 usable samples after masking")

    base_i = ts.TimeSeries("i", "nat", ti[mask], i_vals[mask])
    base_r = ts.TimeSeries("idot", "nat/s", ti[mask], idot_vals[mask])
    tran_i = ts.TimeSeries("i_affine", "nat", ti[mask], a * i_vals[mask] + b)
    tran_r = ts.TimeSeries("idot_affine", "nat/s", ti[mask], a * idot_vals[mask])

    p_base = ts.elasticity(base_r, base_i, window)
    p_tran = ts.elasticity(tran_r, tran_i, window)

    common, idx_b, idx_t = np.intersect1d(p_base.t, p_tran.t,
                                          return_indices=True)
    if common.size == 0:
        return AffineCheckResult(False, float("inf"), 0,
                                 "no common window centers")
    dev = float(np.max(np.abs(p_base.slope[idx_b] - p_tran.slope[idx_t])))
    ok = dev <= AFFINE_TOL
    detail = "" if ok else (f"max |p(aI+b) - p(I)| = {dev:.3e} over "
                            f"{common.size} windows exceeds tol={AFFINE_TOL:g}")
    return AffineCheckResult(ok, dev, int(common.size), detail)
