"""Per-sample variational motion estimation.

Each altitude level is optimized independently: gradient descent with
momentum on the sequence-consistent total loss, coarse-to-fine over an
average-pooling pyramid (estimate at the coarsest grid, upsample the field
by 2 with vector rescaling, refine). Step sizes are expressed in grid cells
of maximum per-iteration displacement change, and a backtracking line search
guarantees the accepted-iterate loss sequence is non-increasing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import DivergedError, NoOverlapError
from .flow import MAX_MOTION, LossConfig, SequenceObjective, _as_dbr
from .grid import DBR_FLOOR, MotionField, RainField, avg_pool2d, pool_mask_all, upsample2d


class LevelStatus(enum.Enum):
    """Outcome of one level: OK, NO_SIGNAL (nothing to track, zero field)
    or NO_ACCEPTED_STEP (descent tried steps and rejected every one, so the
    field is still the zero start)."""

    OK = "ok"
    NO_SIGNAL = "no_signal"
    NO_ACCEPTED_STEP = "no_accepted_step"


# Step schedule of the descent: the step decays by STEP_DECAY every
# iteration and by MISS_DECAY after each trial that fails to improve on the
# best iterate; RESET_AFTER such misses in a row restart from the best
# iterate with momentum cleared; the descent stops below MIN_STEP cells.
STEP_DECAY = 0.995
MISS_DECAY = 0.7
RESET_AFTER = 6
MIN_STEP = 5e-4


@dataclass
class OptimizerConfig:
    """Knobs of the subgradient descent.

    step_size is the initial per-iteration displacement change in grid
    cells (the raw gradient is sup-norm normalized). max_iters applies per
    coarse-to-fine stage; coarse_to_fine_levels=1 runs a single
    full-resolution stage.
    """

    max_iters: int = 200
    step_size: float = 0.5
    momentum: float = 0.85
    coarse_to_fine_levels: int = 3

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # NaN fails the comparison; the warp clips motion at MAX_MOTION,
        # and a step near the float64 maximum overflows the momentum update
        if not 0 < self.step_size <= MAX_MOTION:
            raise ValueError(f"step_size must lie in (0, {MAX_MOTION:g}], "
                             f"got {self.step_size!r}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.coarse_to_fine_levels < 1:
            raise ValueError("coarse_to_fine_levels must be >= 1")


#: One accepted iterate: (loss_total, data_term, divergence_term).
TraceRow = tuple[float, float, float]


@dataclass
class VariationalResult:
    motion: MotionField
    statuses: list[LevelStatus]
    traces: list[list[TraceRow]] = field(default_factory=list)


def default_threads() -> int:
    """Always 1: the levels are estimated one after another in the calling
    thread. This exists only for the ``threads`` attribute of the
    benchmark's ``variational.estimate`` span; a later benchmark change can
    delete it."""
    return 1


def _descend(obj: SequenceObjective, u: np.ndarray, opt: OptimizerConfig,
             trace: list[TraceRow] | None,
             global_only: bool = False) -> tuple[np.ndarray, int, int]:
    """Momentum subgradient descent tracking the best iterate; returns
    (best iterate, accepted steps, rejected steps).

    With global_only the gradient is projected onto spatially constant
    fields (descent over one translation vector per level), the 2-dof
    extreme of the coarse-to-fine schedule. Trial steps that fail to improve
    on the best loss backtrack the working step size; the recorded trace
    holds accepted (improving) iterates only, so it is non-increasing by
    construction. NaN losses raise DivergedError; +inf (a pair lost all
    overlap) just rejects the trial.
    """
    best_total, data, div, grad = obj.evaluate(u, want_grad=True)
    if np.isnan(best_total):
        raise DivergedError(0)
    if not np.isfinite(best_total):
        raise NoOverlapError("frames share no valid cells at the initial iterate")
    if trace is not None:
        trace.append((best_total, data, div))
    # evaluate returns a new gradient array each call, so the best
    # iterate's raw gradient can be kept for a reset
    u_best, grad_best = u.copy(), grad
    u_cur = u
    vel = np.zeros_like(u)
    step = opt.step_size
    misses = 0
    accepted = rejected = 0
    for it in range(1, opt.max_iters + 1):
        if global_only:
            grad = np.broadcast_to(grad.mean(axis=(2, 3), keepdims=True),
                                   grad.shape)
        gmax = float(np.abs(grad).max())
        if gmax < 1e-14:
            break
        vel = opt.momentum * vel - (step / gmax) * grad
        u_cur = u_cur + vel
        total, data, div, grad = obj.evaluate(u_cur, want_grad=True)
        if np.isnan(total):
            raise DivergedError(it)
        if total < best_total:
            best_total = total
            u_best, grad_best = u_cur.copy(), grad
            misses = 0
            accepted += 1
            if trace is not None:
                trace.append((total, data, div))
        else:
            misses += 1
            rejected += 1
            step *= MISS_DECAY
            vel *= 0.5
            if misses >= RESET_AFTER:
                u_cur, grad = u_best.copy(), grad_best
                vel[:] = 0.0
                misses = 0
        step *= STEP_DECAY
        if step < MIN_STEP:
            break
    return u_best, accepted, rejected


def _stage_scales(cfg: LossConfig, factor: int) -> tuple[int, ...]:
    """Loss scales used at one pyramid stage: the effective pooling
    (stage factor times loss scale) is capped at the configured maximum."""
    cap = max(cfg.scales)
    kept = tuple(k for k in cfg.scales if k * factor <= cap)
    return kept or (min(cfg.scales),)


def _pyramid_depth(levels: int, ny: int, nx: int) -> int:
    """Stages of the coarse-to-fine pyramid: at most levels, each stage
    halving the grid of the one after it, the coarsest keeping at least 16
    cells on the shorter axis. The depth is computed, not counted down, so
    a huge levels costs nothing."""
    # 2 ** (n - 1) <= min(ny, nx) // 16 holds up to n = that quotient's
    # bit length
    return min(levels, max(1, (min(ny, nx) // 16).bit_length()))


def _optimize_level(frames: list[np.ndarray], masks: list[np.ndarray],
                    cfg: LossConfig, opt: OptimizerConfig):
    """Estimate one level's motion; returns (u (2,Y,X), status, trace).

    The schedule starts from the zero field at the coarsest stage, fits a
    global translation (gradient descent projected onto constant fields),
    then refines per cell, upsampling by 2 between stages. The trace covers
    the full-resolution stage only (coarser stages build the
    initialization). A level whose stages rejected every trial step is
    reported as NO_ACCEPTED_STEP. Each stage's objective gets float32
    frames, so it warps in float32; the motion stays float64.
    """
    ny, nx = frames[0].shape
    has_signal = any((f[m] > DBR_FLOOR + 1e-9).any() for f, m in zip(frames, masks))
    if not has_signal:
        return np.zeros((2, ny, nx)), LevelStatus.NO_SIGNAL, []

    n_pyr = _pyramid_depth(opt.coarse_to_fine_levels, ny, nx)

    trace: list[TraceRow] = []
    u = None
    accepted = rejected = 0
    for lev in range(n_pyr - 1, -1, -1):
        factor = 2 ** lev
        fr = [avg_pool2d(f, factor)[None].astype(np.float32) for f in frames]
        mk = [pool_mask_all(m, factor)[None] for m in masks]
        h, w = fr[0].shape[1:]
        stage_cfg = cfg if factor == 1 else replace(cfg,
                                                    scales=_stage_scales(cfg, factor))
        obj = SequenceObjective(fr, mk, stage_cfg)
        stage_trace = trace if factor == 1 else None
        if u is None:
            u = np.zeros((1, 2, h, w))
            u, acc, rej = _descend(obj, u, opt, stage_trace, global_only=True)
            accepted += acc
            rejected += rej
        else:
            u = (upsample2d(u, 2) * 2.0)[:, :, :h, :w]
        u, acc, rej = _descend(obj, u, opt, stage_trace)
        accepted += acc
        rejected += rej
    status = LevelStatus.OK
    if accepted == 0 and rejected > 0:
        status = LevelStatus.NO_ACCEPTED_STEP
    return u[0], status, trace


def estimate_variational(
    inputs: Sequence[RainField],
    future: Sequence[RainField] | None = None,
    cfg: LossConfig | None = None,
    opt: OptimizerConfig | None = None,
) -> VariationalResult:
    """Estimate a per-level motion field minimizing the total loss.

    When ``future`` is omitted the objective covers only the observed input
    frames (inference mode); when given, the concatenated observed+future
    sequence is fit (diagnostic mode). Levels are processed independently,
    one after another; a level with no precipitation signal comes back as a
    zero field with status NO_SIGNAL. A grid that no configured scale pools
    to at least 4 x 4 cells is a ValueError.
    """
    cfg = cfg or LossConfig()
    opt = opt or OptimizerConfig()
    if len(inputs) < 2:
        raise ValueError("need at least 2 input frames")

    phi = list(inputs) + (list(future) if future else [])
    fields = [_as_dbr(f) for f in phi]
    nz = fields[0].nz
    shape = fields[0].data.shape
    for f in fields:
        if f.data.shape != shape:
            raise ValueError("all frames must share one shape")
    ny, nx = shape[1:]
    k = min(cfg.scales)
    if min(ny, nx) // k < 4:
        raise ValueError(
            f"no pooling scale leaves a 4 x 4 grid of the {ny} x {nx} "
            f"frames: the smallest, {k}, leaves {ny // k} x {nx // k}")

    results = [_optimize_level([f.data[z] for f in fields],
                               [f.mask[z] for f in fields], cfg, opt)
               for z in range(nz)]
    u = np.stack([r[0] for r in results])
    statuses = [r[1] for r in results]
    traces = [r[2] for r in results]
    return VariationalResult(motion=MotionField(u), statuses=statuses,
                             traces=traces)


def mean_endpoint_error(est: MotionField, truth: MotionField,
                        mask: np.ndarray | None = None) -> float:
    """Mean Euclidean distance between estimated and true displacement
    vectors, optionally restricted to a Z x Y x X (or Y x X) cell mask."""
    if est.u.shape != truth.u.shape:
        raise ValueError("motion fields must share one shape")
    d = np.sqrt(((est.u - truth.u) ** 2).sum(axis=1))
    if mask is None:
        return float(d.mean())
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        mask = np.broadcast_to(mask[None], d.shape)
    if not mask.any():
        raise ValueError("empty evaluation mask")
    return float(d[mask].mean())
