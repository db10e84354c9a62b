"""Sequence-consistent extrapolation losses with a divergence penalty.

The objective scores a single time-invariant motion field by how well one
backward-warp step explains every consecutive frame pair of a sequence,
evaluated over multiple spatial scales, plus a penalty on the magnitude of
the field's horizontal divergence:

    total = (1 - beta) * multiscale_data_term + beta * mean(|div u|)

All data terms are computed in dBR space over jointly valid cells and are
mean-reduced (over cells, pairs, and scales) so magnitudes are comparable
across grid sizes. Gradients with respect to the motion field are analytic
through the bilinear warp kernel, the pooling, and the Sobel divergence
stencil; ``gradient_check`` validates them against central finite
differences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage

from .errors import NoOverlapError
from .grid import (
    DBR_FLOOR,
    MotionField,
    RainField,
    Space,
    avg_pool2d,
    bilinear_sample,
    inside,
    pool_mask_all,
    sample_mask,
    upsample2d,
)
from .transform import rain_to_dbr


class Criterion(enum.Enum):
    MAE_DBR = "mae_dbr"
    MSE_DBR = "mse_dbr"


@dataclass
class LossConfig:
    """Weights of the total loss.

    beta is the divergence-penalty weight, strictly inside (0, 1); scales are
    the average-pooling factors of the multi-scale data term. Data terms
    always restrict to jointly valid cells.
    """

    beta: float = 0.1
    scales: tuple[int, ...] = (1, 2, 4, 8)
    criterion: Criterion = Criterion.MAE_DBR

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie strictly inside (0, 1), got {self.beta}")
        self.scales = tuple(int(k) for k in self.scales)
        if not self.scales or any(k < 1 for k in self.scales):
            raise ValueError(f"scales must be non-empty, each >= 1, got {self.scales}")


# Sobel derivative stencils, normalized so a unit-slope linear ramp yields
# derivative 1.
SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]]) / 8.0
SOBEL_Y = SOBEL_X.T.copy()


def _as_dbr(f: RainField) -> RainField:
    return f if f.space is Space.DBR else rain_to_dbr(f)


def _warp_stack(
    sources: np.ndarray,
    masks: np.ndarray | None,
    targets: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    criterion: Criterion,
    want_grad: bool,
):
    """Warped data terms of all consecutive pairs of one frame stack.

    sources holds frames 0..T-2, targets frames 1..T-1; masks is (T, ny, nx)
    or None for all-valid. The single time-invariant motion (vx, vy) warps
    every source frame at once; leading axes of vx and vy (shape
    (..., ny, nx)) hold independent motions, and every result gains them
    after the pair axis. Cells whose departure point leaves the domain are
    invalid and excluded, so the clamped corners never contribute to the
    result. Returns (sums (P, ...), counts broadcastable to (P, ...),
    d_sum/d_vx (P, ..., ny, nx), d_sum/d_vy) with the gradient entries None
    when want_grad is False.
    """
    n_pairs, ny, nx = targets.shape
    xs = np.arange(nx, dtype=np.float64) - vx
    ys = np.arange(ny, dtype=np.float64)[:, None] - vy
    warped, gx, gy = bilinear_sample(sources, xs, ys, want_grad=want_grad)
    # pair stacks broadcast against the motions' leading axes
    per_pair = (n_pairs,) + (1,) * (vx.ndim - 2) + (ny, nx)
    if masks is None:
        valid = inside(xs, ys, ny, nx)
    else:
        valid = sample_mask(masks[:-1], xs, ys) & masks[1:].reshape(per_pair)
    counts = valid.reshape(valid.shape[:-2] + (-1,)).sum(axis=-1)

    r = np.where(valid, warped - targets.reshape(per_pair), 0.0)
    cells = r.shape[:-2] + (-1,)
    if criterion is Criterion.MAE_DBR:
        sums = np.abs(r).reshape(cells).sum(axis=-1)
        dr = np.sign(r)
    else:
        sums = (r * r).reshape(cells).sum(axis=-1)
        dr = 2.0 * r
    if not want_grad:
        return sums, counts, None, None
    # the departure point is (x - vx, y - vy), hence the sign flip
    return sums, counts, -dr * gx, -dr * gy


def _unpool_grad(g: np.ndarray, k: int, ny: int, nx: int) -> np.ndarray:
    """Adjoint of (avg_pool2d then divide-by-k): spread each coarse-cell
    gradient over its k x k block with weight 1/k^3, folding replication
    padding back onto the edge cells."""
    if k == 1:
        return g.copy()
    up = upsample2d(g, k) / float(k ** 3)
    out = up[..., :ny, :nx].copy()
    uy, ux = up.shape[-2:]
    if uy > ny:
        out[..., ny - 1, :] += up[..., ny:, :nx].sum(axis=-2)
    if ux > nx:
        out[..., nx - 1] += up[..., :ny, nx:].sum(axis=-1)
    if uy > ny and ux > nx:
        out[..., ny - 1, nx - 1] += up[..., ny:, nx:].sum(axis=(-2, -1))
    return out


def _sobel_divergence(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """d(u_x)/dx + d(u_y)/dy of one level, or of a stack of them on the
    leading axes, via 3x3 Sobel stencils with replicated edge padding."""
    return (ndimage.correlate(ux, SOBEL_X, mode="nearest", axes=(-2, -1))
            + ndimage.correlate(uy, SOBEL_Y, mode="nearest", axes=(-2, -1)))


def divergence(mf: MotionField) -> np.ndarray:
    """Per-level horizontal divergence d(u_x)/dx + d(u_y)/dy via 3x3 Sobel
    stencils with replicated edge padding.

    Edge rows/columns rely on the replication and should be excluded from
    penalties; see interior_mask.
    """
    return np.stack([_sobel_divergence(*mf.level(z)) for z in range(mf.nz)])


def interior_mask(ny: int, nx: int) -> np.ndarray:
    """Cells whose divergence stencil does not touch the replicated border."""
    m = np.zeros((ny, nx), dtype=bool)
    if ny > 2 and nx > 2:
        m[1:-1, 1:-1] = True
    return m


def loss_divergence(mf: MotionField) -> float:
    """Mean magnitude of the divergence over interior cells of all levels."""
    inner = interior_mask(*mf.grid_shape)
    n_int = int(inner.sum()) * mf.nz
    if n_int == 0:
        return 0.0
    return sum(float(np.abs(d[inner]).sum()) for d in divergence(mf)) / n_int


class SequenceObjective:
    """Cached evaluator of the total loss and its gradient for one frame
    sequence.

    Pooled frame/mask pyramids and the interior mask of the divergence
    penalty are built once at construction; evaluate() is then cheap to call
    repeatedly with different motion fields, which is what the optimizer
    needs, and scores a batch of them in one call, which is what the
    finite-difference check needs.
    """

    def __init__(self, frames: Sequence[np.ndarray], masks: Sequence[np.ndarray],
                 cfg: LossConfig):
        if len(frames) < 2:
            raise ValueError("sequence must contain at least 2 frames")
        self.cfg = cfg
        self.nz = frames[0].shape[0]
        self.ny, self.nx = frames[0].shape[1:]
        for f in frames:
            if f.shape != frames[0].shape:
                raise ValueError("all frames in the sequence must share one shape")
        self.n_pairs = len(frames) - 1
        # a scale must leave at least a 4 x 4 pooled grid to constrain
        # anything; smaller ones are skipped for this grid size
        self.active_scales = tuple(
            k for k in cfg.scales if min(self.ny, self.nx) // k >= 4)
        if not self.active_scales:
            self.active_scales = (min(cfg.scales),)
        # pooled[k][z] -> (source stack, mask stack or None, target stack)
        self.pooled: dict[int, list[tuple]] = {}
        for k in self.active_scales:
            per_z = []
            for z in range(self.nz):
                stack = np.stack([avg_pool2d(f[z], k) for f in frames])
                mstack = np.stack([pool_mask_all(m[z], k) for m in masks])
                per_z.append((stack[:-1], None if mstack.all() else mstack,
                              stack[1:]))
            self.pooled[k] = per_z
        self.inner = interior_mask(self.ny, self.nx)
        # flat indices, so a batch gathers contiguous rows to sum
        self.inner_cells = np.flatnonzero(self.inner)
        self.n_interior = self.inner_cells.size * self.nz

    def evaluate(self, u: np.ndarray, want_grad: bool = True):
        """Returns (total, data_term, div_term, grad-or-None) for motion u
        of shape Z x 2 x Y x X.

        Leading axes of u, (..., Z, 2, Y, X), hold independent motion
        fields scored in one batch; the three terms are then arrays over
        those axes and grad has u's shape.

        A frame pair with no jointly valid cells makes the data term +inf
        (the motion pushed everything out of view; in a batch, for every
        field of it); callers treat such iterates as rejected.
        """
        cfg = self.cfg
        batch = u.shape[:-4]
        n_scales = len(self.active_scales)
        grad = np.zeros_like(u) if want_grad else None
        data_val = np.zeros(batch)
        for k in self.active_scales:
            n_tot = np.zeros((self.n_pairs,) + batch)
            per_z = []
            for z in range(self.nz):
                sources, mstack, targets = self.pooled[k][z]
                v = u[..., z, :, :, :]
                if k > 1:
                    v = avg_pool2d(v, k) / k
                sums, counts, dvx, dvy = _warp_stack(
                    sources, mstack, targets, v[..., 0, :, :], v[..., 1, :, :],
                    cfg.criterion, want_grad)
                per_z.append((sums, dvx, dvy))
                n_tot += counts
            if (n_tot == 0).any():
                return np.inf, np.inf, 0.0, grad
            w = 1.0 / (n_tot * self.n_pairs * n_scales)
            for z, (sums, dvx, dvy) in enumerate(per_z):
                data_val += (sums * w).sum(axis=0)
                if want_grad:
                    gx = np.einsum("p...,p...yx->...yx", w, dvx)
                    gy = np.einsum("p...,p...yx->...yx", w, dvy)
                    grad[..., z, 0, :, :] += _unpool_grad(gx, k, self.ny, self.nx)
                    grad[..., z, 1, :, :] += _unpool_grad(gy, k, self.ny, self.nx)

        div_val = np.zeros(batch)
        n_int = self.n_interior
        if n_int > 0:
            inner = self.inner
            for z in range(self.nz):
                div = _sobel_divergence(u[..., z, 0, :, :], u[..., z, 1, :, :])
                cells = div.reshape(batch + (-1,)).take(self.inner_cells, axis=-1)
                div_val += np.abs(cells).sum(axis=-1)
                if want_grad:
                    g = np.where(inner, np.sign(div), 0.0)
                    dux = ndimage.convolve(g, SOBEL_X, mode="constant",
                                           cval=0.0, axes=(-2, -1))
                    duy = ndimage.convolve(g, SOBEL_Y, mode="constant",
                                           cval=0.0, axes=(-2, -1))
                    gz = grad[..., z, :, :, :]
                    gz[..., 0, :, :] = (1.0 - cfg.beta) * gz[..., 0, :, :] \
                        + cfg.beta * dux / n_int
                    gz[..., 1, :, :] = (1.0 - cfg.beta) * gz[..., 1, :, :] \
                        + cfg.beta * duy / n_int
            div_val /= n_int
        elif want_grad:
            grad *= (1.0 - cfg.beta)

        total = (1.0 - cfg.beta) * data_val + cfg.beta * div_val
        if not batch:
            total, data_val, div_val = float(total), float(data_val), float(div_val)
        return total, data_val, div_val, grad


def _evaluate(phi: Sequence[RainField], mf: MotionField,
              cfg: LossConfig) -> tuple[float, float, float]:
    """(total, data_term, div_term) of one motion field on a RainField
    sequence, converted to dBR."""
    fields = [_as_dbr(f) for f in phi]
    obj = SequenceObjective([f.data for f in fields], [f.mask for f in fields],
                            cfg)
    if mf.grid_shape != (obj.ny, obj.nx):
        raise ValueError(f"motion grid {mf.grid_shape} != field grid "
                         f"{(obj.ny, obj.nx)}")
    if mf.nz != obj.nz:
        raise ValueError(f"motion has Z={mf.nz}, fields have Z={obj.nz}")
    total, data_val, div_val, _ = obj.evaluate(mf.u, want_grad=False)
    if not np.isfinite(data_val):
        raise NoOverlapError("a frame pair has no jointly valid cells")
    return total, data_val, div_val


def loss_multiscale(phi: Sequence[RainField], mf: MotionField,
                    cfg: LossConfig | None = None) -> float:
    """Mean of the sequence data term over the configured pooling scales,
    with motion vectors rescaled to each pooled grid.

    With scales=(1,) this is the one-step data term: the mean criterion
    between the backward warp of each frame and its successor over jointly
    valid cells, averaged over all consecutive pairs. Scales that would pool
    the grid below 4 x 4 cells cannot constrain motion and are skipped for
    that grid size."""
    return _evaluate(phi, mf, cfg or LossConfig())[1]


def loss_total(phi: Sequence[RainField], mf: MotionField,
               cfg: LossConfig | None = None) -> float:
    """(1 - beta) * multiscale data term + beta * divergence penalty."""
    return _evaluate(phi, mf, cfg or LossConfig())[0]


def gradient_check(cfg: LossConfig | None = None, n_instances: int = 5,
                   size: int = 16, seed: int = 0, step: float = 1e-6) -> float:
    """Validate analytic gradients of loss_total against central finite
    differences on random two-frame instances; returns the max relative
    error across all motion components. The perturbed fields of an instance
    are scored as batches, each bitwise equal to a call per field."""
    cfg = cfg or LossConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        base = ndimage.gaussian_filter(rng.normal(0.0, 4.0, (size, size)), 2.0)
        nxt = ndimage.gaussian_filter(rng.normal(0.0, 4.0, (size, size)), 2.0)
        frames = [np.asarray(base)[None] - 4.0, np.asarray(nxt)[None] - 3.0]
        frames = [np.maximum(f, DBR_FLOOR) for f in frames]
        masks = [np.ones((1, size, size), bool)] * 2
        u = rng.uniform(-1.5, 1.5, (1, 2, size, size))
        obj = SequenceObjective(frames, masks, cfg)
        _, _, _, grad = obj.evaluate(u, want_grad=True)
        # perturb one component per batch entry; chunks bound the memory
        fd = np.empty(u.size)
        chunk = max(1, 2 ** 18 // u.size)
        for lo in range(0, u.size, chunk):
            idx = np.arange(lo, min(lo + chunk, u.size))
            du = np.zeros((idx.size, u.size))
            du[np.arange(idx.size), idx] = step
            du = du.reshape((idx.size,) + u.shape)
            lp = obj.evaluate(u + du, want_grad=False)[0]
            lm = obj.evaluate(u - du, want_grad=False)[0]
            fd[idx] = (lp - lm) / (2.0 * step)
        fd = fd.reshape(u.shape)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
        worst = max(worst, float((np.abs(grad - fd) / denom).max()))
    return worst
