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
        if not (0.0 <= self.amplitude_dbz <= 70.0):
            raise ValueError(
                f"cell amplitude must lie in [0, 70] dBZ, got {self.amplitude_dbz}")
        if self.sigma <= 0:
            raise ValueError("cell sigma must be positive")


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
    amplitude_trend: float = 0.0
    seed: int = 0
    z_levels: np.ndarray | None = None

    def __post_init__(self):
        t, z, y, x = self.shape
        n_cells = len(self.cells)
        if self.velocities is None and self.rotation_omega is None:
            self.velocities = np.zeros((z, max(n_cells, 1), 2))
        if self.velocities is not None:
            self.velocities = np.asarray(self.velocities, dtype=np.float64)
            want = (z, n_cells, 2) if n_cells else (z, 1, 2)
            if self.velocities.shape != want:
                raise ValueError(
                    f"velocities must have shape {want}, got {self.velocities.shape}")
            if not np.all(np.isfinite(self.velocities)):
                raise ValueError("velocities must be finite")
        if self.level_offsets is not None:
            self.level_offsets = np.asarray(self.level_offsets, dtype=np.float64)
            if self.level_offsets.shape != (z, n_cells, 2):
                raise ValueError("level_offsets must have shape (Z, n_cells, 2)")
        if self.switch_velocities is not None:
            self.switch_velocities = np.asarray(self.switch_velocities, float)
        if self.level_amp_scale is not None:
            self.level_amp_scale = np.asarray(self.level_amp_scale, float)
            if self.level_amp_scale.shape != (z,):
                raise ValueError("level_amp_scale must have one entry per level")
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


def _render_frame(scn: SyntheticScenario, z: int, t: int,
                  yg: np.ndarray, xg: np.ndarray) -> np.ndarray:
    plane = np.full(yg.shape, -np.inf)
    amp_scale = 1.0 if scn.level_amp_scale is None else scn.level_amp_scale[z]
    for b, cell in enumerate(scn.cells):
        cy, cx = _cell_position(scn, z, b, t)
        amp = cell.amplitude_dbz * amp_scale + scn.amplitude_trend * t
        amp = min(max(amp, 0.0), 70.0)
        r2 = (yg - cy) ** 2 + (xg - cx) ** 2
        plane = np.maximum(plane, amp * np.exp(-r2 / (2.0 * cell.sigma ** 2)))
    return plane


def _truth_field(scn: SyntheticScenario) -> MotionField:
    t, z, ny, nx = scn.shape
    yg, xg = np.mgrid[0:ny, 0:nx].astype(np.float64)
    u = np.zeros((z, 2, ny, nx))
    if scn.rotation_omega is not None:
        # exact backward displacement of the rigid rotation
        cy, cx = (ny - 1) / 2.0, (nx - 1) / 2.0
        ang = scn.rotation_omega
        dy, dx = yg - cy, xg - cx
        back_y = cy + dy * math.cos(ang) - dx * math.sin(ang)
        back_x = cx + dy * math.sin(ang) + dx * math.cos(ang)
        for zi in range(z):
            u[zi, 0] = xg - back_x
            u[zi, 1] = yg - back_y
        return MotionField(u)
    if not scn.cells:
        return MotionField(u)
    for zi in range(z):
        centers = np.array([_cell_start(scn, zi, b) for b in range(len(scn.cells))])
        d2 = ((yg[None] - centers[:, 0, None, None]) ** 2
              + (xg[None] - centers[:, 1, None, None]) ** 2)
        nearest = np.argmin(d2, axis=0)
        vel = scn.velocities[zi]
        u[zi, 0] = vel[:, 0][nearest]
        u[zi, 1] = vel[:, 1][nearest]
    return MotionField(u)


def generate(scn: SyntheticScenario) -> tuple[RadarVolume, MotionField]:
    """Render the scenario into a RadarVolume plus its ground-truth motion."""
    from scipy import ndimage
    t_count, z_count, ny, nx = scn.shape
    for cell in scn.cells:
        if not (0 <= cell.y < ny and 0 <= cell.x < nx):
            warnings.warn(f"cell at ({cell.y}, {cell.x}) starts outside the "
                          f"{ny} x {nx} grid; it will be clipped", stacklevel=2)
    rng = np.random.default_rng(scn.seed)
    yg, xg = np.mgrid[0:ny, 0:nx].astype(np.float64)
    data = np.empty((t_count, z_count, ny, nx))
    rho = None
    if scn.clutter_cells:
        rho = np.full((t_count, z_count, ny, nx), 0.97)

    clutter_planes = []
    for cl in scn.clutter_cells:
        r2 = (yg - cl.y) ** 2 + (xg - cl.x) ** 2
        clutter_planes.append(cl.amplitude_dbz * np.exp(-r2 / (2.0 * cl.sigma ** 2)))

    for t in range(t_count):
        for z in range(z_count):
            plane = _render_frame(scn, z, t, yg, xg)
            plane = np.where(plane >= ECHO_FLOOR_DBZ, plane, NO_ECHO_DBZ)
            if scn.speckle_prob > 0:
                hits = rng.random((ny, nx)) < scn.speckle_prob
                # background only, clear of echo edges so speckles stay
                # isolated single-cell artifacts
                near_echo = ndimage.binary_dilation(plane > NO_ECHO_DBZ,
                                                    iterations=3)
                hits &= ~near_echo
                amps = rng.uniform(*SPECKLE_DBZ, size=(ny, nx))
                plane = np.where(hits, amps, plane)
            for cp in clutter_planes:
                clutter = np.where(cp >= ECHO_FLOOR_DBZ, cp, -np.inf)
                in_clutter = clutter > plane
                plane = np.where(in_clutter, clutter, plane)
                if rho is not None:
                    rho[t, z][in_clutter] = CLUTTER_RHO
            data[t, z] = plane

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
    scenario to the 24 x 8 x 512 x 512 geometry.
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
    if frames is not None:
        scn.shape = (frames,) + scn.shape[1:]
    return scn
