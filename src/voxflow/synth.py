"""Synthetic volumetric scenarios with exact ground-truth motion.

Reflectivity cells are isotropic Gaussians whose centers follow analytic
trajectories, so frames carry no discretization error of their own; the
returned motion field is the exact one-step backward displacement of the
trajectory model. Scenarios are fully seed-deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .denoise import diamond_morphology
from .grid import NO_ECHO_DBZ, MotionField, RadarVolume

#: Gaussian contributions below this dBZ level are treated as no echo, which
#: gives every cell a sharp, finite support.
ECHO_FLOOR_DBZ = 2.0
#: reflectivity range (dBZ) of injected speckles, drawn uniformly
SPECKLE_DBZ = (10.0, 35.0)
#: copolar correlation coefficient of clutter cells
CLUTTER_RHO = 0.3


@dataclass
class GaussianCell:
    y: float
    x: float
    amplitude_dbz: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.y) and math.isfinite(self.x)):
            raise ValueError(
                f"cell centre (y, x) must be finite, got ({self.y}, {self.x})")
        if not (0.0 <= self.amplitude_dbz <= 70.0):
            raise ValueError(
                f"cell amplitude must lie in [0, 70] dBZ, got {self.amplitude_dbz}")
        if not (0.0 < self.sigma < math.inf):
            raise ValueError(f"cell sigma must be positive and finite, got {self.sigma}")


def _finite_table(value, shape: tuple, name: str) -> np.ndarray:
    """value as a float64 array of the given shape, all of it finite."""
    table = np.asarray(value, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {table.shape}")
    if not np.all(np.isfinite(table)):
        raise ValueError(f"{name} must be finite")
    return table


@dataclass
class SyntheticScenario:
    """Generator parameters carrying ground-truth motion.

    velocities has shape (Z, n_cells, 2): per-level, per-cell displacement in
    cells per step, (u_x, u_y). When all cells of a level share one velocity
    the level's true field is uniform; otherwise it is piecewise constant
    over the Voronoi regions of the cell centers. level_offsets (Z, n_cells,
    2), when given, shift each cell's start position per level. switch_t
    swaps in switch_velocities from that frame on; the continuation then
    breaks motion persistence on purpose (used by the cell-splitting
    scenario, whose ground-truth field stays the pre-switch one).
    rotation_omega replaces the velocity table with a rigid rotation about
    the grid center.
    """

    shape: tuple[int, int, int, int] = (8, 8, 128, 128)
    cells: list[GaussianCell] = field(default_factory=list)
    velocities: np.ndarray | None = None
    level_offsets: np.ndarray | None = None
    switch_t: int | None = None
    switch_velocities: np.ndarray | None = None
    rotation_omega: float | None = None
    level_amp_scale: np.ndarray | None = None
    speckle_prob: float = 0.0
    clutter_cells: list[GaussianCell] = field(default_factory=list)
    seed: int = 0
    z_levels: np.ndarray | None = None

    def __post_init__(self):
        t, z, y, x = self.shape
        n_cells = len(self.cells)
        want = (z, max(n_cells, 1), 2)
        if self.velocities is None and self.rotation_omega is None:
            self.velocities = np.zeros(want)
        if self.velocities is not None:
            self.velocities = _finite_table(self.velocities, want, "velocities")
        if self.level_offsets is not None:
            self.level_offsets = _finite_table(self.level_offsets,
                                               (z, n_cells, 2), "level_offsets")
        if self.switch_t is not None and self.switch_velocities is None:
            raise ValueError("switch_t needs switch_velocities")
        if self.switch_velocities is not None:
            self.switch_velocities = _finite_table(self.switch_velocities, want,
                                                   "switch_velocities")
        if self.level_amp_scale is not None:
            self.level_amp_scale = _finite_table(self.level_amp_scale, (z,),
                                                 "level_amp_scale")
        if self.rotation_omega is not None and not math.isfinite(self.rotation_omega):
            raise ValueError(f"rotation_omega must be finite, got {self.rotation_omega}")
        if not (0.0 <= self.speckle_prob <= 1.0):
            raise ValueError(f"speckle_prob must lie in [0, 1], got {self.speckle_prob}")
        if self.z_levels is None:
            self.z_levels = 500.0 + 500.0 * np.arange(z)


def _cell_start(scn: SyntheticScenario, z: int, b: int) -> tuple[float, float]:
    cell = scn.cells[b]
    if scn.level_offsets is None:
        return cell.y, cell.x
    off = scn.level_offsets[z, b]
    return cell.y + off[1], cell.x + off[0]


def _cell_position(scn: SyntheticScenario, z: int, b: int, t: int):
    y0, x0 = _cell_start(scn, z, b)
    if scn.rotation_omega is not None:
        _, _, ny, nx = scn.shape
        cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
        ang = scn.rotation_omega * t
        dy, dx = y0 - cy, x0 - cx
        return (cy + dy * math.cos(ang) + dx * math.sin(ang),
                cx - dy * math.sin(ang) + dx * math.cos(ang))
    v = scn.velocities[z, b]
    if scn.switch_t is None or t <= scn.switch_t:
        return y0 + v[1] * t, x0 + v[0] * t
    v2 = scn.switch_velocities[z, b]
    held = scn.switch_t
    return (y0 + v[1] * held + v2[1] * (t - held),
            x0 + v[0] * held + v2[0] * (t - held))


def _add_gaussian(plane: np.ndarray, cy: float, cx: float, amp: float,
                  sigma: float, work: np.ndarray) -> None:
    """plane = max(plane, amp * exp(-r2 / (2 sigma^2))) wherever that value
    can reach ECHO_FLOOR_DBZ; work is scratch of plane's shape.

    Beyond R = sigma * sqrt(2 ln(amp / ECHO_FLOOR_DBZ)) of the centre the
    value is under the floor, which _threshold turns into no echo, so only
    the grid-clipped square of radius R (plus margins for rounding) is
    rendered, into a contiguous slice of work; a cell under the floor or
    whose square misses the grid renders nothing. Every value equals, bit
    for bit, that of the whole-plane formula
    amp * exp(-((yg - cy)**2 + (xg - cx)**2) / (2 sigma^2)): the squares
    come from 1-D row and column terms of the grid indices, added negated,
    and (-a) + (-b) rounds to -(a + b) exactly. A NaN centre, or a sigma
    whose 2 sigma^2 overflows, can give NaN values far from the centre, so
    such a cell renders the whole plane.
    """
    ny, nx = plane.shape
    two_s2 = 2.0 * sigma ** 2
    if math.isnan(cy) or math.isnan(cx) or math.isinf(two_s2):
        y0, y1, x0, x1 = 0, ny, 0, nx
    else:
        if amp < ECHO_FLOOR_DBZ:
            return
        # R with room for rounding: a relative margin, an absolute one in
        # the exponent (amplitudes at the floor, where R is 0) and a cell
        log_ratio = math.log(amp / ECHO_FLOOR_DBZ)
        reach = sigma * math.sqrt(2.0 * log_ratio + 1e-9) * (1.0 + 1e-6) + 1.0
        # an infinite centre fails these tests, so only finite bounds are
        # rounded to indices
        if not (cy + reach >= 0.0 and cy - reach <= ny - 1.0
                and cx + reach >= 0.0 and cx - reach <= nx - 1.0):
            return
        y0 = math.ceil(max(cy - reach, 0.0))
        y1 = math.floor(min(cy + reach, ny - 1.0)) + 1
        x0 = math.ceil(max(cx - reach, 0.0))
        x1 = math.floor(min(cx + reach, nx - 1.0)) + 1
    neg_dy2 = -((np.arange(y0, y1, dtype=np.float64) - cy) ** 2)
    neg_dx2 = -((np.arange(x0, x1, dtype=np.float64) - cx) ** 2)
    box = work.reshape(-1)[:neg_dy2.size * neg_dx2.size].reshape(
        neg_dy2.size, neg_dx2.size)
    np.add(neg_dy2[:, None], neg_dx2, out=box)
    box /= two_s2
    np.exp(box, out=box)
    box *= amp
    target = plane[y0:y1, x0:x1]
    np.maximum(target, box, out=target)


def _threshold(plane: np.ndarray, fill: float) -> None:
    """Set every value of plane under ECHO_FLOOR_DBZ (or NaN) to fill, as
    np.where(plane >= ECHO_FLOOR_DBZ, plane, fill) would."""
    np.copyto(plane, fill, where=~(plane >= ECHO_FLOOR_DBZ))


def _render_frame(scn: SyntheticScenario, z: int, t: int, plane: np.ndarray,
                  work: np.ndarray) -> None:
    """Render level z of frame t into plane: the upper envelope of the
    cells, with values under the echo floor set to no echo."""
    plane.fill(-np.inf)
    amp_scale = 1.0 if scn.level_amp_scale is None else scn.level_amp_scale[z]
    for b, cell in enumerate(scn.cells):
        cy, cx = _cell_position(scn, z, b, t)
        amp = min(max(cell.amplitude_dbz * amp_scale, 0.0), 70.0)
        _add_gaussian(plane, cy, cx, amp, cell.sigma, work)
    _threshold(plane, NO_ECHO_DBZ)


def _truth_field(scn: SyntheticScenario) -> MotionField:
    """The exact backward displacement, computed in float64 and rounded once
    into a float32 field, RMF1's own precision, as write_motion rounds it. A
    velocity beyond float32's range keeps the field float64, which
    write_motion refuses to store."""
    t, z, ny, nx = scn.shape
    ys = np.arange(ny, dtype=np.float64)[:, None]
    xs = np.arange(nx, dtype=np.float64)
    with np.errstate(over="ignore"):
        fits = scn.velocities is None or \
            np.isfinite(scn.velocities.astype(np.float32)).all()
    u = np.zeros((z, 2, ny, nx), np.float32 if fits else np.float64)
    if scn.rotation_omega is not None:
        # exact backward displacement of the rigid rotation
        cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
        ang = scn.rotation_omega
        dy, dx = ys - cy, xs - cx
        back_y = cy + dy * math.cos(ang) - dx * math.sin(ang)
        back_x = cx + dy * math.sin(ang) + dx * math.cos(ang)
        u[:, 0] = xs - back_x
        u[:, 1] = ys - back_y
        return MotionField(u)
    if not scn.cells:
        return MotionField(u)
    best = np.empty((ny, nx))
    d2 = np.empty((ny, nx))
    for zi in range(z):
        vel = scn.velocities[zi]
        # each cell takes the velocity of its first nearest start, as argmin
        # over the cells would pick it (cell 0 where every distance is inf)
        cy, cx = _cell_start(scn, zi, 0)
        np.add((ys - cy) ** 2, (xs - cx) ** 2, out=best)
        u[zi] = vel[0][:, None, None]
        for b in range(1, len(scn.cells)):
            cy, cx = _cell_start(scn, zi, b)
            np.add((ys - cy) ** 2, (xs - cx) ** 2, out=d2)
            closer = d2 < best
            np.copyto(best, d2, where=closer)
            np.copyto(u[zi], vel[b][:, None, None], where=closer)
    return MotionField(u)


def generate(scn: SyntheticScenario) -> tuple[RadarVolume, MotionField]:
    """Render the scenario into a RadarVolume plus its ground-truth motion.

    The volume is float32, RVOL's own precision: each plane is rendered in
    float64 into one scratch plane, speckle and clutter included, and
    rounded once when it is stored, so write_rvol writes the bytes of the
    float64 render. Speckles fall on background cells only, beyond three
    diamond_morphology dilations of the plane's echo. The truth motion is
    rounded once into float32 too, so write_motion writes the bytes of its
    float64 values. A 16 x 8 x 512 x 512 crop-scale volume takes 134 MB
    (268 MB in float64); its truth motion takes about 17 MB more. The
    render planes are freed before the truth is built.
    """
    t_count, z_count, ny, nx = scn.shape
    for cell in scn.cells:
        if not (0 <= cell.y < ny and 0 <= cell.x < nx):
            warnings.warn(f"cell at ({cell.y}, {cell.x}) starts outside the "
                          f"{ny} x {nx} grid; it will be clipped", stacklevel=2)
    rng = np.random.default_rng(scn.seed)
    data = np.empty((t_count, z_count, ny, nx), np.float32)
    plane, work = np.empty((ny, nx)), np.empty((ny, nx))
    rho = None
    if scn.clutter_cells:
        rho = np.full((t_count, z_count, ny, nx), 0.97)

    clutter_planes = []
    for cl in scn.clutter_cells:
        cp = np.full((ny, nx), -np.inf)
        _add_gaussian(cp, cl.y, cl.x, cl.amplitude_dbz, cl.sigma, work)
        _threshold(cp, -np.inf)
        clutter_planes.append(cp)

    for t in range(t_count):
        for z in range(z_count):
            _render_frame(scn, z, t, plane, work)
            if scn.speckle_prob > 0:
                hits = rng.random((ny, nx)) < scn.speckle_prob
                # background only, clear of echo edges so speckles stay
                # isolated single-cell artifacts
                near_echo = diamond_morphology(plane > NO_ECHO_DBZ, 3,
                                               np.logical_or)
                hits &= ~near_echo
                amps = rng.uniform(*SPECKLE_DBZ, size=(ny, nx))
                np.copyto(plane, amps, where=hits)
            for cp in clutter_planes:
                in_clutter = cp > plane
                np.copyto(plane, cp, where=in_clutter)
                if rho is not None:
                    rho[t, z][in_clutter] = CLUTTER_RHO
            data[t, z] = plane

    del plane, work
    vol = RadarVolume(data=data, z_levels=scn.z_levels, rho_hv=rho)
    return vol, _truth_field(scn)


def clean_copy(scn: SyntheticScenario) -> SyntheticScenario:
    """The same scenario with all noise sources switched off."""
    return replace(scn, speckle_prob=0.0, clutter_cells=[])


PRESET_NAMES = ("uniform", "rotation", "shear2", "shear8", "noisy", "split")


def preset(name: str, frames: int | None = None, seed: int = 0,
           crop_scale: bool = False) -> SyntheticScenario:
    """Canonical scenarios used by the acceptance suite.

    frames overrides the time dimension (e.g. to extend a scenario far
    enough for long-lead verification); crop_scale switches the uniform
    scenario to the 24 x 8 x 512 x 512 geometry and is a ValueError for
    every other preset.
    """
    key = name.lower()
    if key == "uniform":
        shape = (24, 8, 512, 512) if crop_scale else (8, 8, 128, 128)
        mul = 4 if crop_scale else 1
        cells = [GaussianCell(70.0 * mul, 45.0 * mul, 48.0, 30.0 * mul),
                 GaussianCell(40.0 * mul, 88.0 * mul, 42.0, 20.0 * mul)]
        z = shape[1]
        vel = np.tile(np.array([3.0, -2.0]), (z, len(cells), 1))
        # echo weakens with altitude so the levels are distinct samples
        amp_scale = 1.0 - 0.12 * np.arange(z) / max(z - 1, 1)
        scn = SyntheticScenario(shape=shape, cells=cells, velocities=vel,
                                level_amp_scale=amp_scale, seed=seed)
    elif key == "rotation":
        cells = [GaussianCell(33.5, 63.5, 45.0, 8.0),
                 GaussianCell(63.5, 87.5, 38.0, 6.0)]
        scn = SyntheticScenario(shape=(8, 1, 128, 128), cells=cells,
                                rotation_omega=math.radians(1.5), seed=seed)
    elif key == "shear2":
        cells = [GaussianCell(30.0, 30.0, 45.0, 16.0),
                 GaussianCell(15.0, 52.0, 35.0, 6.0)]
        vel = np.array([[[3.0, 0.0]] * len(cells),
                        [[0.0, 3.0]] * len(cells)])
        scn = SyntheticScenario(shape=(24, 2, 128, 128), cells=cells,
                                velocities=vel, seed=seed)
    elif key == "shear8":
        n_cells, radius, speed = 6, 40.0, 1.25
        cells = []
        psis = [2.0 * math.pi * b / n_cells for b in range(n_cells)]
        for psi in psis:
            cells.append(GaussianCell(64.0 + radius * math.sin(psi),
                                      64.0 + radius * math.cos(psi), 40.0, 4.0))
        z = 8
        vel = np.zeros((z, n_cells, 2))
        for zi in range(z):
            theta = (math.pi / 2.0) * zi / (z - 1)
            for b, psi in enumerate(psis):
                vel[zi, b] = (speed * math.cos(theta + psi),
                              speed * math.sin(theta + psi))
        scn = SyntheticScenario(shape=(8, z, 128, 128), cells=cells,
                                velocities=vel, seed=seed)
    elif key == "noisy":
        cells = [GaussianCell(40.0, 40.0, 35.0, 8.0),
                 GaussianCell(64.0, 80.0, 35.0, 8.0),
                 GaussianCell(90.0, 50.0, 30.0, 8.0)]
        vel = np.tile(np.array([2.0, 1.0]), (2, len(cells), 1))
        scn = SyntheticScenario(
            shape=(8, 2, 128, 128), cells=cells, velocities=vel,
            speckle_prob=0.001,
            clutter_cells=[GaussianCell(20.0, 104.0, 45.0, 5.0)], seed=seed)
    elif key == "split":
        # one cell; the upper level starts 7 cells east and moves slower, so
        # both levels align exactly at the forecast start (t=7) and the true
        # continuation travels as a single coherent column
        cells = [GaussianCell(64.0, 30.0, 40.0, 3.0)]
        vel = np.array([[[2.0, 0.0]], [[1.0, 0.0]]])
        after = np.array([[[2.0, 0.0]], [[2.0, 0.0]]])
        offsets = np.array([[[0.0, 0.0]], [[7.0, 0.0]]])
        scn = SyntheticScenario(shape=(24, 2, 128, 128), cells=cells,
                                velocities=vel, level_offsets=offsets,
                                switch_t=7, switch_velocities=after, seed=seed)
    else:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if crop_scale and key != "uniform":
        raise ValueError(f"crop_scale applies to the uniform preset only, "
                         f"not {name!r}")
    if frames is not None:
        scn.shape = (frames,) + scn.shape[1:]
    return scn
