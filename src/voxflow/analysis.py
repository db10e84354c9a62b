"""Dataset and motion-field structure analyses.

Covers rainy-pixel ratios per altitude, inter-level correlation matrices for
reflectivity and motion, month-wise box statistics, the coverage-versus-
correlation histogram with its rank-sum outlier selection, and the
cell-splitting diagnostic for vertically pooled nowcasts.

A volume argument is iterated for its frames in order, one-frame
RadarVolumes with the volume's static mask: a RadarVolume, an open
RvolReader, which decodes one frame at a time, or a list of its frames
give the same result, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .grid import NO_ECHO_DBZ, MotionField, RadarVolume, RainField, cmax
from .transform import dbz_reaching
from .transform import volume_to_rain  # noqa: F401  bound by benchmarks/launcher.py

# echo threshold of the reflectivity correlation; see its docstring
ECHO_THRESHOLD_DBZ = 0.0
# reflectivity thresholds of the rainy-pixel ratios; the monthly box plot
# takes the second (20 dBZ)
RAINY_THRESHOLDS_DBZ = (0.0, 20.0)
# samples the outlier ranking selects, and the least time between two of
# them in minutes
TOP_K = 3
GAP_MINUTES = 60.0
# reflectivity threshold of the CMAX coverage ratio
COVERAGE_DBZ = 20.0
# bin edges of the coverage-versus-correlation histogram, 20 per axis;
# read-only, since the histogram returns these arrays themselves
COVERAGE_EDGES = np.linspace(0.0, 1.0, 21)
CORR_EDGES = np.linspace(-1.0, 1.0, 21)
COVERAGE_EDGES.flags.writeable = CORR_EDGES.flags.writeable = False


def rainy_ratio(vol: Iterable[RadarVolume],
                thresholds_dbz: Sequence[float]) -> np.ndarray:
    """Fraction of valid cells exceeding each reflectivity threshold, per
    altitude level; shape (Z, n_thresholds), averaged over the time axis.

    The frames are read one at a time: each frame's counts are summed as
    integers and divided once, so the fractions are those of the whole
    volume, bit for bit. The thresholds are compared as float64, whatever
    the volume's dtype. No frames at all is a ValueError.
    """
    counts, t = None, 0
    for part in vol:
        if counts is None:
            counts = np.zeros((part.shape[1], len(thresholds_dbz)), np.int64)
        for j, thr in enumerate(map(np.float64, thresholds_dbz)):
            counts[:, j] += np.count_nonzero((part.data > thr) & part.mask,
                                             axis=(0, 2, 3))
        t += part.shape[0]
    if counts is None:
        raise ValueError("no frames given")
    denom = (t * part.mask.sum(axis=(1, 2)))[:, None]
    return np.divide(counts, denom, out=np.zeros(counts.shape),
                     where=denom > 0)


def _centred(a: np.ndarray) -> tuple[np.ndarray, float]:
    """A sample's float64 deviations from its mean and their sum of
    squares: _pearson's per-sample half, which a caller may form once for
    every pair that shares the sample."""
    a = a.astype(np.float64, copy=False)
    if a.size < 2:
        return a, 0.0
    d = a - a.mean()
    return d, float((d * d).sum())


def _corr(da: np.ndarray, ssa: float, db: np.ndarray, ssb: float) -> float:
    """Pearson's r of two _centred samples of one size."""
    if da.size < 2:
        return float("nan")
    denom = math.sqrt(ssa * ssb)
    if denom == 0.0:
        return float("nan")
    return float((da * db).sum() / denom)


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson's r, summed in float64 whatever the samples' dtype."""
    return _corr(*_centred(a), *_centred(b))


def pair_mean(z: int, rows: Iterable[tuple[int, int, float]]) -> np.ndarray:
    """Mirrored z x z matrix of the mean r of (i, j, r) rows with i < j,
    summed in row order; NaN r are skipped, entries without a finite r are
    NaN and the diagonal is exactly 1."""
    acc = np.zeros((z, z))
    cnt = np.zeros((z, z), dtype=int)
    for i, j, r in rows:
        if not math.isnan(r):
            acc[i, j] += r
            cnt[i, j] += 1
    with np.errstate(invalid="ignore"):
        mean = acc / cnt  # 0 / 0 is NaN: no usable sample
    out = np.where(np.tri(z, dtype=bool), mean.T, mean)
    np.fill_diagonal(out, 1.0)
    return out


def reflectivity_corr_matrix(
        vols: Iterable[Iterable[RadarVolume]]) -> np.ndarray:
    """Mean pixel-wise Pearson correlation between altitude-level pairs.

    Every frame of every volume is one sample; a sample qualifies only when
    echo above ECHO_THRESHOLD_DBZ is present at all altitude levels.
    Entries with no usable samples are NaN; the diagonal is exactly 1. vols
    may be any iterable, such as a generator that opens one volume at a
    time, and each volume is iterated for its frames; an empty one, or one
    whose volumes differ in level count, raises ValueError.
    """
    z = None
    rows = []
    for n, vol in enumerate(vols):
        for part in vol:
            z = part.shape[1] if z is None else z
            if part.shape[1] != z:
                raise ValueError(f"volume {n} has Z={part.shape[1]}, "
                                 f"expected Z={z}")
            for frame in part.data:
                if all((frame[zi][part.mask[zi]] > ECHO_THRESHOLD_DBZ).any()
                       for zi in range(z)):
                    rows += _frame_rows(frame, part.mask)
    if z is None:
        raise ValueError("no volumes given")
    return pair_mean(z, rows)


def _frame_rows(frame: np.ndarray,
                valid: np.ndarray) -> list[tuple[int, int, float]]:
    """(i, j, r) of every level pair i < j of one Z x Y x X frame, r being
    _pearson's over the cells valid at both levels.

    The pairs are taken by joint mask: levels whose validity planes are
    equal give every pair among them one joint mask, and each level's
    _centred samples under a joint mask are formed once for all the pairs
    that share it, then dropped. The rows are _pearson's, bit for bit, in
    the order of combinations.
    """
    planes: dict[bytes, int] = {}
    plane = [planes.setdefault(v.tobytes(), zi) for zi, v in enumerate(valid)]
    pairs = list(combinations(range(len(frame)), 2))
    by_joint: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, j in pairs:
        key = min(plane[i], plane[j]), max(plane[i], plane[j])
        by_joint.setdefault(key, []).append((i, j))
    r = {}
    for (p, q), shared in by_joint.items():
        joint = valid[p] & valid[q]
        centred = {zi: _centred(frame[zi][joint])
                   for zi in {zi for pair in shared for zi in pair}}
        for i, j in shared:
            r[i, j] = _corr(*centred[i], *centred[j])
    return [(i, j, r[i, j]) for i, j in pairs]


class MotionSample(NamedTuple):
    """A motion field with the two Z x Y x X planes of its volume that the
    motion correlations read: the echo cells (see motion_pair_corr) and the
    static mask. The reflectivity itself is not kept."""

    motion: MotionField
    echo: np.ndarray
    mask: np.ndarray


def motion_sample(mf: MotionField,
                  vol: Iterable[RadarVolume]) -> MotionSample:
    """The MotionSample of a motion field and its input volume. A cell is
    echo where it holds dBZ above NO_ECHO_DBZ in some frame; the frames'
    echo planes are OR-ed one at a time. No frames at all is a ValueError."""
    echo = None
    for part in vol:
        planes = (part.data > NO_ECHO_DBZ).any(0)
        echo = planes if echo is None else np.logical_or(echo, planes, out=echo)
    if echo is None:
        raise ValueError("no frames given")
    return MotionSample(mf, echo, part.mask)


def _levels(s: MotionSample) -> int:
    if s.motion.nz != s.echo.shape[0]:
        raise ValueError("motion field and volume level counts differ")
    if s.motion.grid_shape != s.echo.shape[1:]:
        raise ValueError(f"motion grid {s.motion.grid_shape} differs from "
                         f"volume grid {s.echo.shape[1:]}")
    return s.motion.nz


#: the motion correlation's components: u and v concatenated, u, and v
COMPONENTS = ("both", "u", "v")


def _pair_corr(s: MotionSample, i: int, j: int,
               components: Sequence[str]) -> list[float]:
    """r of levels i and j for each of the components, from one region and
    one gather of each level's u and v."""
    for component in components:
        if component not in COMPONENTS:
            raise ValueError(f"component must be 'u', 'v' or 'both', "
                             f"got {component!r}")
    region = (s.echo[i] | s.echo[j]) & s.mask[i] & s.mask[j]
    if region.sum() < 2:
        return [float("nan")] * len(components)
    (ui, vi), (uj, vj) = s.motion.level(i), s.motion.level(j)
    ui, vi, uj, vj = ui[region], vi[region], uj[region], vj[region]
    out = []
    for component in components:
        if component == "u":
            a, b = ui, uj
        elif component == "v":
            a, b = vi, vj
        else:
            a, b = np.concatenate([ui, vi]), np.concatenate([uj, vj])
        out.append(_pearson(a, b))
    return out


def motion_pair_corr(mf: MotionField, vol: Iterable[RadarVolume], i: int,
                     j: int, component: str = "both") -> float:
    """Pearson correlation between the motion fields of levels i and j over
    the precipitating region of the corresponding input slices.

    The region is the cells valid at both levels where either level holds
    dBZ above NO_ECHO_DBZ in some frame: exactly the cells whose summed
    time-mean rain rate of the two slices is above 0 mm/h. component selects
    'u', 'v', or 'both' (u and v concatenated into one vector). Level
    indices outside [0, Z) raise ValueError. vol is read one frame at a
    time, as for motion_sample.
    """
    return sample_pair_corr(motion_sample(mf, vol), i, j, component)


def sample_pair_corr(s: MotionSample, i: int, j: int,
                     component: str = "both") -> float:
    """motion_pair_corr of a MotionSample."""
    nz = _levels(s)
    for idx in (i, j):
        if not 0 <= idx < nz:
            raise ValueError(f"level index {idx} outside [0, {nz}): "
                             f"the volume has {nz} levels")
    return _pair_corr(s, i, j, (component,))[0]


def motion_corr_matrix(mfs: Sequence[MotionField],
                       inputs: Sequence[Iterable[RadarVolume]],
                       component: str = "both") -> np.ndarray:
    """Mean pairwise motion correlation matrix over a dataset of samples.

    Each pair correlation is motion_pair_corr's, over the same region, and
    each input volume is read one frame at a time. Every sample must have
    the first sample's level count; one that differs, or an empty dataset,
    raises ValueError.
    """
    if len(mfs) != len(inputs):
        raise ValueError("need one input volume per motion field")
    z = None
    rows = []
    for n, s in enumerate(map(motion_sample, mfs, inputs)):
        z = s.motion.nz if z is None else z
        if s.motion.nz != z:
            raise ValueError(f"sample {n} has Z={s.motion.nz}, expected Z={z}")
        rows += component_rows(s, (component,))[component]
    if z is None:
        raise ValueError("no samples given")
    return pair_mean(z, rows)


def component_rows(s: MotionSample, components: Sequence[str] = COMPONENTS
                   ) -> dict[str, list[tuple[int, int, float]]]:
    """(i, j, r) of every level pair i < j of a sample for each of the
    components, in the order motion_corr_matrix averages them, so that a
    caller may keep the rows of many samples, not the samples, and average
    them with pair_mean. Each pair's region and gathers are formed once for
    all the components."""
    rows: dict[str, list] = {component: [] for component in components}
    for i, j in combinations(range(_levels(s)), 2):
        for component, r in zip(components, _pair_corr(s, i, j, components)):
            rows[component].append((i, j, r))
    return rows


@dataclass
class BoxStats:
    q1: float
    median: float
    q3: float
    lo_whisker: float
    hi_whisker: float
    outliers: list[float] = field(default_factory=list)
    count: int = 0


def monthwise_boxstats(values: Sequence[float],
                       timestamps: Sequence[datetime]) -> dict[int, BoxStats]:
    """Tukey box statistics per calendar month (1..12).

    Quantiles use linear interpolation between order statistics; whiskers
    extend to the most extreme values within 1.5 IQR of the box; values
    beyond the whiskers are reported as outliers, not clipped.
    """
    if len(values) != len(timestamps):
        raise ValueError("values and timestamps must align")
    by_month: dict[int, list[float]] = {}
    for v, ts in zip(values, timestamps):
        by_month.setdefault(ts.month, []).append(float(v))
    out: dict[int, BoxStats] = {}
    for month, vals in sorted(by_month.items()):
        arr = np.asarray(vals)
        q1, med, q3 = np.quantile(arr, [0.25, 0.5, 0.75])
        iqr = q3 - q1
        lo_lim = q1 - 1.5 * iqr
        hi_lim = q3 + 1.5 * iqr
        inside = arr[(arr >= lo_lim) & (arr <= hi_lim)]
        lo = float(inside.min()) if inside.size else float(q1)
        hi = float(inside.max()) if inside.size else float(q3)
        outliers = sorted(float(v) for v in arr[(arr < lo_lim) | (arr > hi_lim)])
        out[month] = BoxStats(q1=float(q1), median=float(med), q3=float(q3),
                              lo_whisker=lo, hi_whisker=hi, outliers=outliers,
                              count=int(arr.size))
    return out


def coverage_ratio(vol: Iterable[RadarVolume]) -> float:
    """Mean fraction of valid CMAX pixels exceeding COVERAGE_DBZ across the
    volume's frames, each pooled on its own as it is read."""
    return float(rainy_ratio(map(cmax, vol), (COVERAGE_DBZ,))[0, 0])


def coverage_vs_corr_histogram(
    samples: Sequence[tuple[float, float]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D density over (coverage ratio, motion correlation) sample pairs,
    binned at COVERAGE_EDGES and CORR_EDGES.

    Returns (counts, coverage_edges, corr_edges); counts sum to the number
    of finite samples.
    """
    cov = np.asarray([s[0] for s in samples], dtype=np.float64)
    cor = np.asarray([s[1] for s in samples], dtype=np.float64)
    keep = np.isfinite(cov) & np.isfinite(cor)
    counts, xe, ye = np.histogram2d(cov[keep], cor[keep],
                                    bins=[COVERAGE_EDGES, CORR_EDGES])
    return counts, xe, ye


@dataclass
class OutlierSample:
    sample_id: str
    timestamp: datetime
    coverage: float
    correlation: float


@dataclass
class RankedOutliers:
    ids: list[str]
    exhausted: bool = False


def _avg_ranks(values: list[float]) -> np.ndarray:
    """Average ranks (1-based) of the values, ascending: a group of c equal
    values ending at rank r shares rank r - (c - 1) / 2."""
    _, group, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def rank_outliers(samples: Sequence[OutlierSample]) -> RankedOutliers:
    """The TOP_K samples by combined rank: descending coverage plus
    ascending correlation.

    Ties in the combined score break toward the earlier timestamp. Samples
    closer than GAP_MINUTES to an already selected one are skipped so one
    long event does not fill the list. When fewer than TOP_K samples
    survive, all of them are returned with the exhausted flag set. A sample
    whose coverage or correlation is not finite raises ValueError.
    """
    for s in samples:
        if not (math.isfinite(s.coverage) and math.isfinite(s.correlation)):
            raise ValueError(f"sample {s.sample_id!r} has coverage "
                             f"{s.coverage} and correlation {s.correlation}; "
                             "both must be finite to be ranked")
    cov_rank = _avg_ranks([-s.coverage for s in samples])
    cor_rank = _avg_ranks([s.correlation for s in samples])
    combined = cov_rank + cor_rank
    order = sorted(range(len(samples)),
                   key=lambda i: (combined[i], samples[i].timestamp,
                                  samples[i].sample_id))
    chosen: list[OutlierSample] = []
    for idx in order:
        if len(chosen) == TOP_K:
            break
        s = samples[idx]
        if any(abs((s.timestamp - c.timestamp).total_seconds()) < GAP_MINUTES * 60.0
               for c in chosen):
            continue
        chosen.append(s)
    return RankedOutliers(ids=[s.sample_id for s in chosen],
                          exhausted=len(chosen) < TOP_K)


def _count_stack(stack: np.ndarray) -> np.ndarray:
    """Number of 4-connected components of each plane of a boolean
    (P, H, W) stack, counted in NumPy over horizontal runs of wet cells.

    Two runs on adjacent rows of a plane join where they overlap, and an
    overlap begins at the start of one of the two runs, so only the columns
    where either cell starts a run are linked. Each round hooks the larger
    root of every linked pair to the smaller one and jumps pointers until
    every run points at its root; the roots left are the components.
    """
    p, h, w = stack.shape
    start = stack.copy()
    start[..., 1:] &= ~stack[..., :-1]
    runs = np.flatnonzero(start)  # flat index of each run's first cell
    link = stack[:, :-1] & stack[:, 1:]
    link &= start[:, :-1] | start[:, 1:]
    top = np.flatnonzero(link)
    if h > 1:
        top += top // ((h - 1) * w) * w  # (P, H-1, W) index to (P, H, W)
    a = np.searchsorted(runs, top, side="right") - 1
    b = np.searchsorted(runs, top + w, side="right") - 1
    root = np.arange(runs.size)
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
        a, b = root[a], root[b]
        keep = a != b
        a, b = a[keep], b[keep]
    heads = runs[root == np.arange(runs.size)]
    return np.bincount(heads // (h * w), minlength=p)


def count_components(plane: np.ndarray) -> int:
    """Number of 4-connected components of a boolean plane, counted in
    NumPy; a plane that is not 2-D raises ValueError."""
    plane = np.asarray(plane, dtype=bool)
    if plane.ndim != 2:
        raise ValueError(f"need a 2-D plane, got shape {plane.shape}")
    return int(_count_stack(plane[None])[0])


@dataclass
class SplitDiagnostic:
    """Per-lead component counts of a volumetric nowcast.

    The splitting artifact shows as cmax_counts rising while every row of
    level_counts stays constant; cmax_rainy_cells tracks the accompanying
    coverage growth of the composite.
    """

    cmax_counts: list[int]
    level_counts: np.ndarray
    cmax_rainy_cells: list[int]

    @property
    def split_detected(self) -> bool:
        lc = self.level_counts
        levels_constant = all((lc[:, z] == lc[0, z]).all() for z in range(lc.shape[1]))
        return levels_constant and max(self.cmax_counts) > self.cmax_counts[0]


def cell_split_diagnostic(volume_nowcast: Iterable[RainField | RadarVolume],
                          threshold: float = 1.0) -> SplitDiagnostic:
    """Component counts of the thresholded CMAX composite at each lead,
    alongside per-level counts, all 4-connected and counted in NumPy.

    The nowcast is its leads as RainFields, as advect.extrapolate gives
    them, or a dBZ volume, as the nowcast command writes it, whose frames
    are the leads. A cell is wet where it is valid and its rain rate is at
    or above threshold mm/h. A RainField's rates are compared in float64,
    so a float32 field counts as its float64 copy does. A volume's dBZ are
    compared at transform.dbz_reaching of the threshold for their dtype, so
    no frame is converted to rain rate and each counts as its volume_to_rain
    does, bit for bit. A NaN threshold is a ValueError. The leads are taken
    one at a time, so a lazy iterable or an open RvolReader holds one at a
    time.
    """
    if math.isnan(threshold):
        raise ValueError("the split threshold is NaN")
    cmax_counts = []
    rainy = []
    level_counts = []
    for lead in volume_nowcast:
        for wet in _wet(lead, threshold):
            comp = wet.any(axis=0)
            counts = _count_stack(np.concatenate([comp[None], wet]))
            cmax_counts.append(int(counts[0]))
            rainy.append(int(comp.sum()))
            level_counts.append(counts[1:])
    if not cmax_counts:
        raise ValueError("empty nowcast sequence")
    return SplitDiagnostic(cmax_counts=cmax_counts,
                           level_counts=np.array(level_counts, dtype=int),
                           cmax_rainy_cells=rainy)


def _wet(lead: RainField | RadarVolume, threshold: float) -> np.ndarray:
    """cell_split_diagnostic's wet cells of a lead, T x Z x Y x X: one
    RainField (T = 1) or the frames of a volume."""
    if isinstance(lead, RainField):
        return ((lead.data >= np.float64(threshold)) & lead.mask)[None]
    wet = lead.data >= dbz_reaching(threshold, lead.data.dtype.type)
    return np.logical_and(wet, lead.mask, out=wet)
