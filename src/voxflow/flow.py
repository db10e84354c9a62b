"""Sequence-consistent extrapolation losses with a divergence penalty.

The objective scores a single time-invariant motion field by how well one
backward-warp step explains every consecutive frame pair of a sequence,
evaluated over multiple spatial scales, plus a penalty on the magnitude of
the field's horizontal divergence:

    total = (1 - beta) * multiscale_data_term + beta * mean(|div u|)

All data terms are absolute differences in dBR over jointly valid cells
and are mean-reduced (over cells, pairs, and scales) so magnitudes are
comparable across grid sizes. SequenceObjective takes the frames as bare
dBR arrays at or above DBR_FLOOR (transform.rain_to_dbr of a RainField);
the loss functions take mm/h RainFields and convert them. Gradients with
respect to the motion field are analytic through the bilinear warp
kernel, the pooling, and the Sobel divergence stencil; ``gradient_check``
validates them against central finite differences.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NoOverlapError
from .grid import (
    DBR_FLOOR,
    MotionField,
    RainField,
    avg_pool2d,
    bilinear_apply,
    bilinear_geometry,
    inside,
    mask_apply,
    mask_geometry,
    pool_mask_all,
)
from .transform import rain_to_dbr


@dataclass
class LossConfig:
    """Weights of the total loss.

    beta is the divergence-penalty weight, strictly inside (0, 1); scales are
    the average-pooling factors of the multi-scale data term. The data term
    is the mean absolute difference in dBR, always over jointly valid cells.
    """

    beta: float = 0.1
    scales: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie strictly inside (0, 1), got {self.beta}")
        try:
            self.scales = tuple(operator.index(k) for k in self.scales)
        except TypeError:
            raise ValueError(f"scales must be a sequence of integers, got "
                             f"{self.scales!r}") from None
        if not self.scales or any(k < 1 for k in self.scales):
            raise ValueError(f"scales must be non-empty, each >= 1, got {self.scales}")


# Sobel derivative stencils, normalized so a unit-slope linear ramp yields
# derivative 1.
SOBEL_X = np.array([[-1.0, 0.0, 1.0],
                    [-2.0, 0.0, 2.0],
                    [-1.0, 0.0, 1.0]]) / 8.0
SOBEL_Y = SOBEL_X.T.copy()

#: central-difference step of gradient_check, in cells
FD_STEP = 1e-6


class _Workspace:
    """Named buffers reused across calls: ws(name, shape) is a C-contiguous
    view of the first prod(shape) elements of the name's one flat buffer,
    which only a larger or other-dtype request replaces."""

    def __init__(self):
        self._buffers: dict = {}

    def __call__(self, name, shape: tuple, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < n or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


#: The warp clips motion components to +-MAX_MOTION cells: a departure
#: that far is outside the grid like any larger one, and stays finite in
#: float32.
MAX_MOTION = 1e35


def _warp_stack(
    sources: np.ndarray,
    masks: np.ndarray | None,
    targets: np.ndarray,
    vx: np.ndarray,
    vy: np.ndarray,
    want_grad: bool,
    ws: _Workspace,
    grad_out: np.ndarray | None = None,
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

    Every array this writes comes from ws(name, shape, dtype), so a call
    overwrites the previous call's gradients; grad_out, shape (2, P, ...,
    ny, nx), receives them instead when given. The departure points, the
    warp and the gradients are computed in the dtype of sources (float32
    halves the memory traffic of this bandwidth-bound kernel); the sums
    accumulate in float64.
    """
    n_pairs, ny, nx = targets.shape
    dtype = sources.dtype
    pts = vx.shape
    planes = (n_pairs,) + pts
    xs = np.subtract(np.arange(nx, dtype=dtype), vx, out=ws("xs", pts, dtype))
    ys = np.subtract(np.arange(ny, dtype=dtype)[:, None], vy,
                     out=ws("ys", pts, dtype))
    geometry = bilinear_geometry(
        xs, ys, ny, nx,
        out=(tuple(ws(("corner", i), pts, np.int64) for i in range(4)),
             *(ws(("weight", i), pts, dtype) for i in range(4))))
    work = [ws(("work", i), planes, dtype) for i in range(6)]
    warped, gx, gy = bilinear_apply(sources, geometry, want_grad,
                                    out=ws("warped", planes, dtype), work=work)
    # pair stacks broadcast against the motions' leading axes
    per_pair = (n_pairs,) + (1,) * (vx.ndim - 2) + (ny, nx)
    # the corner index and weight arrays are free again
    (nearest, column, _, _), coord = geometry[0], geometry[1]
    test = ws("test", pts, bool)
    if masks is None:
        valid = inside(xs, ys, ny, nx, out=ws("inside", pts, bool), work=test)
    else:
        valid = mask_apply(
            masks[:-1],
            mask_geometry(xs, ys, ny, nx,
                          out=(nearest, ws("inside", pts, bool)),
                          work=(coord, column, test)),
            out=ws("valid", planes, bool))
        valid &= masks[1:].reshape(per_pair)
    # one count per plane: a reduction along an axis would cast the
    # booleans through a 64 KB buffer
    counts = np.fromiter(map(np.count_nonzero, valid.reshape(-1, ny * nx)),
                         np.int64).reshape(valid.shape[:-2])

    r = np.subtract(warped, targets.reshape(per_pair), out=warped)
    np.copyto(r, 0.0, where=np.logical_not(valid, out=valid))
    sums = np.abs(r, out=work[0]).reshape(r.shape[:-2] + (-1,)).sum(
        axis=-1, dtype=np.float64)
    if not want_grad:
        return sums, counts, None, None
    # np.sign in place takes several times as long; the corner samples'
    # arrays are free
    dr = np.sign(r, out=work[0])
    # the departure point is (x - vx, y - vy), hence the sign flip
    dvx, dvy = (gx, gy) if grad_out is None else grad_out
    np.negative(dr, out=dr)
    return (sums, counts, np.multiply(dr, gx, out=dvx),
            np.multiply(dr, gy, out=dvy))


def _add_unpooled(grad: np.ndarray, g: np.ndarray, k: int,
                  ws: _Workspace) -> None:
    """grad += the adjoint of (avg_pool2d then divide-by-k) applied to g:
    each coarse-cell gradient spread over its k x k block with weight
    1/k^3, replication padding folded back onto the edge cells."""
    if k == 1:
        grad += g
        return
    ny, nx = grad.shape[-2:]
    hk, wk = g.shape[-2:]
    up = ws("up", g.shape[:-2] + (hk * k, wk * k))
    # block replication, as upsample2d
    up.reshape(g.shape[:-2] + (hk, k, wk, k))[...] = g[..., :, None, :, None]
    up /= float(k ** 3)
    out = up[..., :ny, :nx]
    # the folds read only the padding, which out does not cover
    uy, ux = up.shape[-2:]
    if uy > ny:
        out[..., ny - 1, :] += up[..., ny:, :nx].sum(axis=-2)
    if ux > nx:
        out[..., nx - 1] += up[..., :ny, nx:].sum(axis=-1)
    if uy > ny and ux > nx:
        out[..., ny - 1, nx - 1] += up[..., ny:, nx:].sum(axis=(-2, -1))
    grad += out


def _sobel_interior(u: np.ndarray, ws: _Workspace) -> np.ndarray:
    """div u = d(u_x)/dx + d(u_y)/dy via the 3x3 Sobel stencils, on the
    interior cells only (those whose stencil stays inside the grid) of
    u (..., 2, Y, X): ws("div"), contiguous, shape (..., Y - 2, X - 2).
    Each stencil adds its non-zero taps' products to zero in raster order,
    as scipy.ndimage.correlate does, so every cell equals ndimage's bit for
    bit."""
    ny, nx = u.shape[-2:]
    h, w = max(ny - 2, 0), max(nx - 2, 0)
    shape = u.shape[:-3] + (h, w)
    term = ws("term", shape)
    div, div_y = ws("div", shape), ws("div_y", shape)
    for c, (kernel, out) in enumerate(((SOBEL_X, div), (SOBEL_Y, div_y))):
        out.fill(0.0)
        for (i, j), tap in np.ndenumerate(kernel):
            if tap:
                out += np.multiply(u[..., c, i:i + h, j:j + w], tap, out=term)
    return np.add(div, div_y, out=div)


def _sobel_adjoint(g: np.ndarray, ws: _Workspace) -> list:
    """The adjoint of _sobel_interior on g (..., Y - 2, X - 2): the x and y
    component planes (..., Y, X), ws(("du", c)). Each tap adds its product
    into its slice of a zeroed plane. On a g of -1, 0 and 1 every partial
    sum is a multiple of 1/8 of magnitude at most 1, exact in any order,
    so the planes equal scipy.ndimage.convolve (mode "constant") of g with
    a zero border bit for bit, and hold no -0.0."""
    h, w = g.shape[-2:]
    term = ws("term", g.shape)
    planes = []
    for c, kernel in enumerate((SOBEL_X, SOBEL_Y)):
        du = ws(("du", c), g.shape[:-2] + (h + 2, w + 2))
        du.fill(0.0)
        for (i, j), tap in np.ndenumerate(kernel):
            if tap:
                du[..., i:i + h, j:j + w] += np.multiply(g, tap, out=term)
        planes.append(du)
    return planes


def divergence(mf: MotionField) -> np.ndarray:
    """Per-level horizontal divergence d(u_x)/dx + d(u_y)/dy via 3x3 Sobel
    stencils, shape (Z, Y, X).

    Only interior cells are computed; the edge rows and columns, where the
    stencil would leave the grid, are +0.0 and should be excluded from
    penalties, as loss_divergence does.
    """
    div = np.zeros((mf.nz,) + mf.grid_shape)
    div[:, 1:-1, 1:-1] = _sobel_interior(np.asarray(mf.u, np.float64),
                                         _Workspace())
    return div


def _divergence_term(u: np.ndarray, ws: _Workspace | None = None):
    """Mean |div u| over the interior cells of all levels of u
    (..., Z, 2, Y, X), per motion field, and the interior div u, which is
    ws("div") when a workspace is given."""
    ws = ws or _Workspace()
    div = _sobel_interior(u, ws)
    n_int = math.prod(div.shape[-3:])
    if n_int == 0:
        return np.zeros(u.shape[:-4]), div
    # levels add in order, where np.sum would pair 8 or more of them; the
    # stencil's term array is free
    per_level = np.abs(div, out=ws("term", div.shape)).reshape(
        div.shape[:-2] + (-1,)).sum(axis=-1)
    return sum(np.moveaxis(per_level, -1, 0)) / n_int, div


def loss_divergence(mf: MotionField) -> float:
    """Mean magnitude of the divergence over interior cells of all levels."""
    return float(_divergence_term(np.asarray(mf.u, np.float64))[0])


class SequenceObjective:
    """Cached evaluator of the total loss and its gradient for one
    sequence of Z x Y x X dBR frames and their validity masks.

    Pooled frame/mask pyramids are built once at construction; evaluate()
    is then cheap to call repeatedly with different motion fields, which is
    what the optimizer needs, and scores a batch of them in one call, which
    is what the finite-difference check needs. evaluate() writes into one
    workspace, one buffer per array name sized for its largest scale and
    batch shape and shared by all scales (each done with its arrays before
    the next asks) and the divergence term. So a call allocates little
    beyond the gradient it returns; one objective must therefore not
    evaluate in two threads at once.

    The pooled frames keep the frames' floating dtype, and the warp runs in
    it: float32 frames give a float32 warp. The motion is read in float64
    whatever its dtype, and the weights of the data term, the divergence
    term and the returned gradient are float64 whatever the frames.
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
        # the divergence penalty's cells: those its stencil keeps in the grid
        self.n_interior = max(self.ny - 2, 0) * max(self.nx - 2, 0) * self.nz
        self._ws = _Workspace()

    def evaluate(self, u: np.ndarray, want_grad: bool = True):
        """Returns (total, data_term, div_term, grad-or-None) for motion u
        of shape Z x 2 x Y x X.

        Leading axes of u, (..., Z, 2, Y, X), hold independent motion
        fields scored in one batch; the three terms are then arrays over
        those axes and grad has u's shape. grad is a new float64 array on
        every call, whatever u's dtype.

        A frame pair with no jointly valid cells makes the data term +inf
        (the motion pushed everything out of view; in a batch, for every
        field of it); callers treat such iterates as rejected.
        """
        cfg = self.cfg
        u = np.asarray(u, np.float64)
        batch = u.shape[:-4]
        n_scales = len(self.active_scales)
        grad = np.zeros_like(u) if want_grad else None
        data_val = np.zeros(batch)
        warp_u = u
        if u.max() > MAX_MOTION or u.min() < -MAX_MOTION:
            warp_u = np.clip(u, -MAX_MOTION, MAX_MOTION)
        ws = self._ws
        for k in self.active_scales:
            n_tot = np.zeros((self.n_pairs,) + batch)
            per_z = []
            for z in range(self.nz):
                sources, mstack, targets = self.pooled[k][z]
                v = warp_u[..., z, :, :, :]
                if k > 1:
                    hk, wk = sources.shape[-2:]
                    pooled = ws("v", v.shape[:-2] + (hk, wk))
                    # a grid k does not divide is edge-padded into a
                    # workspace array
                    padded = None
                    if (hk * k, wk * k) != (self.ny, self.nx):
                        padded = ws("v_padded", v.shape[:-2] + (hk * k, wk * k))
                    v = np.divide(avg_pool2d(v, k, out=pooled, padded=padded,
                                             row=ws("v_row", pooled.shape)),
                                  k, out=pooled)
                # a level's gradients must outlive the next level's warp
                grad_out = None
                if want_grad and self.nz > 1:
                    grad_out = ws("level_grads",
                                  (self.nz, 2, self.n_pairs) + v.shape[:-3]
                                  + sources.shape[-2:], sources.dtype)[z]
                sums, counts, dvx, dvy = _warp_stack(
                    sources, mstack, targets, v[..., 0, :, :], v[..., 1, :, :],
                    want_grad, ws, grad_out)
                per_z.append((sums, dvx, dvy))
                n_tot += counts
            if (n_tot == 0).any():
                return np.inf, np.inf, 0.0, grad
            w = 1.0 / (n_tot * self.n_pairs * n_scales)
            for z, (sums, dvx, dvy) in enumerate(per_z):
                data_val += (sums * w).sum(axis=0)
                if want_grad:
                    for c, dv in enumerate((dvx, dvy)):
                        g = np.einsum("p...,p...yx->...yx", w, dv,
                                      out=ws("g", dv.shape[1:]))
                        _add_unpooled(grad[..., z, c, :, :], g, k, ws)

        div_val, div = _divergence_term(u, ws)
        n_int = self.n_interior
        if want_grad and n_int > 0:
            # np.sign in place takes several times as long; the array of
            # div's y term is free once div is summed
            g = np.sign(div, out=ws("div_y", div.shape))
            for c, du in enumerate(_sobel_adjoint(g, ws)):
                gc = grad[..., c, :, :]
                np.multiply(1.0 - cfg.beta, gc, out=gc)
                np.divide(np.multiply(cfg.beta, du, out=du), n_int, out=du)
                gc += du
        elif want_grad:
            grad *= (1.0 - cfg.beta)

        total = (1.0 - cfg.beta) * data_val + cfg.beta * div_val
        if not batch:
            total, data_val, div_val = float(total), float(data_val), float(div_val)
        return total, data_val, div_val, grad


def _evaluate(phi: Sequence[RainField], mf: MotionField,
              cfg: LossConfig) -> tuple[float, float, float]:
    """(total, data_term, div_term) of one motion field on a mm/h RainField
    sequence, converted to dBR."""
    obj = SequenceObjective([rain_to_dbr(f) for f in phi],
                            [f.mask for f in phi], cfg)
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

    With scales=(1,) this is the one-step data term: the mean absolute dBR
    difference between the backward warp of each frame and its successor
    over jointly valid cells, averaged over all consecutive pairs. Scales
    that would pool the grid below 4 x 4 cells cannot constrain motion and
    are skipped for that grid size."""
    return _evaluate(phi, mf, cfg or LossConfig())[1]


def loss_total(phi: Sequence[RainField], mf: MotionField,
               cfg: LossConfig | None = None) -> float:
    """(1 - beta) * multiscale data term + beta * divergence penalty."""
    return _evaluate(phi, mf, cfg or LossConfig())[0]


def _gaussian(a: np.ndarray, sigma: float = 2.0) -> np.ndarray:
    """a (Y, X) smoothed by scipy.ndimage.gaussian_filter(a, sigma) bit for
    bit: its kernel of radius int(4 sigma + 0.5), its "reflect" border
    (NumPy's "symmetric") and its sums, center * w_0, then (left + right)
    * w_j from the outermost j inwards, along axis 0 and then axis 1."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    for _ in range(2):  # axis 0, then axis 0 of the transpose
        n = a.shape[0]
        p = np.pad(a, ((r, r), (0, 0)), "symmetric")
        out = p[r:r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r + j]
        a = out.T
    return np.ascontiguousarray(a)


def _check_instances(n_instances: int, size: int, seed: int):
    """The random two-frame instances of gradient_check: (frames, masks,
    motion), float64 throughout."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        base = _gaussian(rng.normal(0.0, 4.0, (size, size)))
        nxt = _gaussian(rng.normal(0.0, 4.0, (size, size)))
        frames = [base[None] - 4.0, nxt[None] - 3.0]
        frames = [np.maximum(f, DBR_FLOOR) for f in frames]
        masks = [np.ones((1, size, size), bool)] * 2
        yield frames, masks, rng.uniform(-1.5, 1.5, (1, 2, size, size))


def gradient_check(cfg: LossConfig | None = None, n_instances: int = 5,
                   size: int = 16, seed: int = 0) -> float:
    """Validate analytic gradients of loss_total against central finite
    differences on random two-frame instances; returns the max relative
    error across all motion components, with steps of FD_STEP cells. The
    perturbed fields of an instance are scored as batches, each bitwise
    equal to a call per field. The frames are float64: central differences
    of this step mean nothing in float32."""
    cfg = cfg or LossConfig()
    worst = 0.0
    for frames, masks, u in _check_instances(n_instances, size, seed):
        obj = SequenceObjective(frames, masks, cfg)
        _, _, _, grad = obj.evaluate(u, want_grad=True)
        # perturb one component per batch entry; chunks bound the memory
        fd = np.empty(u.size)
        chunk = max(1, 2 ** 18 // u.size)
        for lo in range(0, u.size, chunk):
            idx = np.arange(lo, min(lo + chunk, u.size))
            du = np.zeros((idx.size, u.size))
            du[np.arange(idx.size), idx] = FD_STEP
            du = du.reshape((idx.size,) + u.shape)
            lp = obj.evaluate(u + du, want_grad=False)[0]
            lm = obj.evaluate(u - du, want_grad=False)[0]
            fd[idx] = (lp - lm) / (2.0 * FD_STEP)
        fd = fd.reshape(u.shape)
        denom = np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-4)
        worst = max(worst, float((np.abs(grad - fd) / denom).max()))
    return worst
