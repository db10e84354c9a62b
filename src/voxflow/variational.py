"""Per-sample variational motion estimation.

Each altitude level minimizes its own sequence-consistent total loss by a
limited-memory quasi-Newton descent (L-BFGS, in NumPy), coarse-to-fine over
an average-pooling pyramid (estimate at the coarsest grid, upsample the
field by 2 with vector rescaling, refine). Motion is highly correlated
across levels, so a level above the first may start from the level below's
final motion instead: it does so only when that motion scores a lower loss
on the coarsest stage than the level's own global fit, and then refines it
at full resolution against its own frames. Step sizes are expressed in
grid cells of maximum per-iteration displacement change. Only a trial that
lowers the best loss is accepted, so the accepted-iterate loss sequence is
non-increasing. The loss is not smooth (a mean absolute error and an L1
divergence term), so the descent's curvature pairs come from
subgradients: a pair without positive curvature is skipped, and the
memory is cleared whenever the direction it gives does not descend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DivergedError, NoOverlapError
from .flow import LossConfig, SequenceObjective
from .grid import DBR_FLOOR, MotionField, RainField, avg_pool2d, pool_mask_all, upsample2d
from .transform import rain_to_dbr


class LevelStatus(enum.Enum):
    """Outcome of one level: OK, NO_SIGNAL (nothing to track, zero field)
    or NO_ACCEPTED_STEP (descent tried steps and rejected every one, so the
    field is still the zero start). Starting from the level below's motion
    counts as an accepted step, since that motion scored lower than the
    level's global fit from the zero start."""

    OK = "ok"
    NO_SIGNAL = "no_signal"
    NO_ACCEPTED_STEP = "no_accepted_step"


# The descent: a step moves the motion by at most STEP_SIZE cells along
# the steepest descent and by at most 4 * STEP_SIZE cells along a
# quasi-Newton direction, which is built from the last HISTORY (s, y)
# pairs; a trial that fails to lower the best loss is shortened by
# BACKTRACK. A stage makes at most MAX_ITERS trial steps and stops early
# once an accepted step lowers the loss by less than MIN_GAIN of itself.
# The pyramid has at most PYRAMID_STAGES stages.
#
# MIN_STEP is the precision the pipeline resolves, in cells: a stage stops
# once its accepted move, or the next backtracked trial, falls below it.
# The end-point error floor is about 0.03 cells at desk scale, and a
# 16-lead nowcast multiplies a motion error by 16, so moves of a few
# thousandths of a cell change neither; they only cost full-resolution
# evaluations.
STEP_SIZE = 0.5
HISTORY = 3
BACKTRACK = 0.25
MIN_GAIN = 1e-5
MIN_STEP = 5e-3
MAX_ITERS = 120
PYRAMID_STAGES = 3


#: One accepted iterate: (loss_total, data_term, divergence_term).
TraceRow = tuple[float, float, float]


@dataclass
class VariationalResult:
    """The motion, and per level its status, its full-resolution trace and
    whether it started from the level below's motion."""

    motion: MotionField
    statuses: list[LevelStatus]
    traces: list[list[TraceRow]] = field(default_factory=list)
    from_below: list[bool] = field(default_factory=list)


def default_threads() -> int:
    """Always 1: the levels are estimated one after another in the calling
    thread. This exists only for the ``threads`` attribute of the
    benchmark's ``variational.estimate`` span; a later benchmark change can
    delete it."""
    return 1


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two motion-shaped arrays, taken in float64. einsum
    sums in NumPy's own loop: np.dot's multithreaded BLAS costs several
    times the CPU on these sizes."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel(), dtype=np.float64))


class _Curvature:
    """The L-BFGS memory of one descent stage: the last HISTORY (s, y)
    pairs, s an accepted move and y the change of the gradient over it,
    held in a preallocated float32 ring."""

    def __init__(self, shape: tuple[int, ...]):
        self.s = np.empty((HISTORY,) + shape, np.float32)
        self.y = np.empty_like(self.s)
        self.rho = np.empty(HISTORY)
        self.count = 0
        self.head = 0

    def push(self, u_new: np.ndarray, u_old: np.ndarray,
             g_new: np.ndarray, g_old: np.ndarray) -> bool:
        """Keep the pair of one accepted move, unless its curvature s.y is
        not positive; returns whether it was kept."""
        slot = self.head
        np.subtract(u_new, u_old, out=self.s[slot])
        np.subtract(g_new, g_old, out=self.y[slot])
        sy = _dot(self.s[slot], self.y[slot])
        if not sy > 0.0:
            return False
        self.rho[slot] = 1.0 / sy
        self.head = (slot + 1) % HISTORY
        self.count = min(self.count + 1, HISTORY)
        return True

    def direction(self, grad: np.ndarray, out: np.ndarray) -> float:
        """The step -H grad into out, returning its largest component: H
        from the two-loop recursion (Nocedal 1980) over the pairs held,
        scaled by s.y / y.y of the newest. With no pairs, or when that is
        not a descent direction, the memory is cleared and the step is
        -grad scaled to a largest component of STEP_SIZE cells. Either step
        is capped at 4 * STEP_SIZE cells."""
        if self.count:
            slots = [(self.head - 1 - i) % HISTORY for i in range(self.count)]
            np.negative(grad, out=out)
            alpha = []
            for i in slots:
                alpha.append(self.rho[i] * _dot(out, self.s[i]))
                out -= alpha[-1] * self.y[i]
            newest = slots[0]
            out *= 1.0 / (self.rho[newest] * _dot(self.y[newest], self.y[newest]))
            for i, a in zip(reversed(slots), reversed(alpha)):
                out += (a - self.rho[i] * _dot(out, self.y[i])) * self.s[i]
            if not _dot(out, grad) < 0.0:
                self.count = 0
        if not self.count:
            np.multiply(grad, -STEP_SIZE / float(np.abs(grad).max()), out=out)
        longest = float(np.abs(out).max())
        if longest > 4.0 * STEP_SIZE:
            out *= 4.0 * STEP_SIZE / longest
            longest = 4.0 * STEP_SIZE
        return longest


def _descend(obj: SequenceObjective, u: np.ndarray,
             trace: list[TraceRow] | None, global_only: bool = False
             ) -> tuple[np.ndarray, float, int, int]:
    """Limited-memory quasi-Newton descent with backtracking; returns (best
    iterate, its loss, accepted steps, rejected steps).

    Each iteration steps along _Curvature.direction. The full step is scored
    with its gradient; a trial that does not lower the best loss is
    shortened by BACKTRACK and scored without one, and the gradient of an
    accepted shortened trial is then taken once. The descent stops after
    MAX_ITERS trial steps, at a zero gradient, once an accepted move or the
    next shortened trial is below MIN_STEP cells, or once an accepted step
    gains less than MIN_GAIN of the loss. The MIN_STEP stop is a precision
    stop: it says the remaining moves are smaller than the pipeline
    resolves, not that the loss has stopped falling.

    With global_only the gradient is projected onto spatially constant
    fields (descent over one translation vector per level), the 2-dof
    extreme of the coarse-to-fine schedule. The recorded trace holds
    accepted (improving) iterates only, so it is non-increasing by
    construction. NaN losses raise DivergedError; +inf (a pair lost all
    overlap) just rejects the trial.
    """

    def gradient(g):
        if global_only:
            return np.broadcast_to(g.mean(axis=(2, 3), keepdims=True), g.shape)
        return g

    best_total, data, div, grad = obj.evaluate(u, want_grad=True)
    if np.isnan(best_total):
        raise DivergedError(0)
    if not np.isfinite(best_total):
        raise NoOverlapError("frames share no valid cells at the initial iterate")
    if trace is not None:
        trace.append((best_total, data, div))
    grad = gradient(grad)
    u = u.copy()
    trial = np.empty_like(u)
    memory = _Curvature(u.shape)
    accepted = rejected = trials = 0
    while trials < MAX_ITERS and float(np.abs(grad).max()) >= 1e-14:
        # the direction is built in the trial buffer, then becomes the trial
        longest = memory.direction(grad, trial)
        trial += u
        total, data, div, new_grad = obj.evaluate(trial, want_grad=True)
        while True:
            trials += 1
            if np.isnan(total):
                raise DivergedError(trials)
            if total < best_total:
                break
            rejected += 1
            longest *= BACKTRACK
            if trials == MAX_ITERS or longest < MIN_STEP:
                return u, best_total, accepted, rejected
            trial -= u
            trial *= BACKTRACK
            trial += u
            total, data, div, new_grad = obj.evaluate(trial, want_grad=False)
        if new_grad is None:
            new_grad = obj.evaluate(trial, want_grad=True)[3]
        new_grad = gradient(new_grad)
        accepted += 1
        if trace is not None:
            trace.append((total, data, div))
        memory.push(trial, u, new_grad, grad)
        converged = (longest < MIN_STEP
                     or best_total - total < MIN_GAIN * abs(best_total))
        best_total, grad = total, new_grad
        u, trial = trial, u
        if converged:
            break
    return u, best_total, accepted, rejected


def _stage_scales(cfg: LossConfig, factor: int) -> tuple[int, ...]:
    """Loss scales used at one pyramid stage: the effective pooling
    (stage factor times loss scale) is capped at the configured maximum."""
    cap = max(cfg.scales)
    kept = tuple(k for k in cfg.scales if k * factor <= cap)
    return kept or (min(cfg.scales),)


def _pyramid_depth(ny: int, nx: int) -> int:
    """Stages of the coarse-to-fine pyramid: at most PYRAMID_STAGES, each
    stage halving the grid of the one after it, the coarsest keeping at
    least 16 cells on the shorter axis."""
    # 2 ** (n - 1) <= min(ny, nx) // 16 holds up to n = that quotient's
    # bit length
    return min(PYRAMID_STAGES, max(1, (min(ny, nx) // 16).bit_length()))


def _optimize_level(frames: list[np.ndarray], masks: list[np.ndarray],
                    cfg: LossConfig, below: np.ndarray | None = None):
    """Estimate one level's motion; returns (u (2,Y,X), status, trace,
    from_below).

    The schedule starts from the zero field at the coarsest stage, fits a
    global translation (gradient descent projected onto constant fields),
    then refines per cell, upsampling by 2 between stages. below, the level
    below's final motion (2,Y,X), is then scored on the coarsest stage,
    pooled to its grid: if its loss is strictly lower than the global
    fit's, the other coarse stages are skipped and the full-resolution
    stage descends from it (from_below). Either way the level minimizes its
    own loss. The trace covers the full-resolution stage only (coarser
    stages build the initialization). A level whose stages rejected every
    trial step, and which did not start from below, is reported as
    NO_ACCEPTED_STEP. Each stage's objective gets float32 frames, so it
    warps in float32; the motion stays float64.
    """
    ny, nx = frames[0].shape
    has_signal = any((f[m] > DBR_FLOOR + 1e-9).any() for f, m in zip(frames, masks))
    if not has_signal:
        return np.zeros((2, ny, nx)), LevelStatus.NO_SIGNAL, [], False

    n_pyr = _pyramid_depth(ny, nx)

    trace: list[TraceRow] = []
    accepted = rejected = 0
    from_below = False
    for lev in range(n_pyr - 1, -1, -1):
        factor = 2 ** lev
        if from_below and factor > 1:
            continue
        # the stage's frames are freed once the objective has pooled them
        obj = SequenceObjective(
            [avg_pool2d(f, factor)[None].astype(np.float32) for f in frames],
            [pool_mask_all(m, factor)[None] for m in masks],
            replace(cfg, scales=_stage_scales(cfg, factor)))
        stage_trace = trace if factor == 1 else None
        if lev == n_pyr - 1:
            u, fit, acc, rej = _descend(obj, np.zeros((1, 2, obj.ny, obj.nx)),
                                        stage_trace, global_only=True)
            accepted += acc
            rejected += rej
            if below is not None:
                start = (avg_pool2d(below, factor) / factor)[None]
                from_below = obj.evaluate(start, want_grad=False)[0] < fit
            if from_below:
                u = below[None]
                accepted += 1
                if factor > 1:
                    continue
        elif not from_below:
            u = (upsample2d(u, 2) * 2.0)[:, :, :obj.ny, :obj.nx]
        u, _, acc, rej = _descend(obj, u, stage_trace)
        accepted += acc
        rejected += rej
    status = LevelStatus.OK
    if accepted == 0 and rejected > 0:
        status = LevelStatus.NO_ACCEPTED_STEP
    return u[0], status, trace, from_below


def estimate_variational(
    inputs: Sequence[RainField],
    cfg: LossConfig | None = None,
) -> VariationalResult:
    """Estimate a per-level motion field minimizing the inputs' total loss.

    Levels are processed one after another from the lowest, each
    minimizing its own loss; a level above the first starts from the level
    below's final motion only when that motion scores lower on the level's
    coarsest stage than its own global fit (recorded in ``from_below``).
    Each descent stage follows this module's constants and ends after
    MAX_ITERS trial steps at most. A level with no precipitation signal
    comes back as a zero field with status NO_SIGNAL. A grid that no
    configured scale pools to at least 4 x 4 cells is a ValueError.

    Fields in mm/h are converted to dBR one level at a time, just before
    that level runs, so no dBR copy of the whole sequence is held.
    """
    cfg = cfg or LossConfig()
    if len(inputs) < 2:
        raise ValueError("need at least 2 input frames")

    shape = inputs[0].data.shape
    for f in inputs:
        if f.data.shape != shape:
            raise ValueError("all frames must share one shape")
    ny, nx = shape[1:]
    k = min(cfg.scales)
    if min(ny, nx) // k < 4:
        raise ValueError(
            f"no pooling scale leaves a 4 x 4 grid of the {ny} x {nx} "
            f"frames: the smallest, {k}, leaves {ny // k} x {nx // k}")

    motion = np.empty((shape[0], 2, ny, nx))
    statuses, traces, from_below = [], [], []
    for z in range(shape[0]):
        # dBR is elementwise, so converting one level's view of each frame
        # gives that level's planes of a whole-field conversion; they are
        # freed before the next level is converted
        level = [rain_to_dbr(RainField(f.data[z:z + 1], mask=f.mask[z:z + 1]))
                 for f in inputs]
        motion[z], status, trace, started_below = _optimize_level(
            [d[0] for d in level], [f.mask[z] for f in inputs], cfg,
            motion[z - 1] if z else None)
        del level
        statuses.append(status)
        traces.append(trace)
        from_below.append(started_below)
    return VariationalResult(MotionField(motion), statuses, traces, from_below)


def mean_endpoint_error(est: MotionField, truth: MotionField,
                        mask: np.ndarray | None = None) -> float:
    """Mean Euclidean distance between estimated and true displacement
    vectors, optionally restricted to a Z x Y x X (or Y x X) cell mask."""
    if est.u.shape != truth.u.shape:
        raise ValueError("motion fields must share one shape")
    d = np.sqrt((np.subtract(est.u, truth.u, dtype=np.float64) ** 2)
                .sum(axis=1))
    if mask is None:
        return float(d.mean())
    if np.shape(mask) not in (d.shape, d.shape[1:]):
        raise ValueError(f"mask shape {np.shape(mask)} is neither the fields' "
                         f"Z x Y x X {d.shape} nor Y x X {d.shape[1:]}")
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), d.shape)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    return float(d[mask].mean())
