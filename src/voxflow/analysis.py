"""Dataset and motion-field structure analyses.

Covers rainy-pixel ratios per altitude, inter-level correlation matrices for
reflectivity and motion, month-wise box statistics, the coverage-versus-
correlation histogram with its rank-sum outlier selection, and the
cell-splitting diagnostic for vertically pooled nowcasts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .denoise import DIAMOND
from .grid import NO_ECHO_DBZ, MotionField, RadarVolume, RainField, cmax
from .transform import volume_to_rain  # noqa: F401  bound by benchmarks/launcher.py

# echo threshold of the reflectivity correlation; see its docstring
ECHO_THRESHOLD_DBZ = 0.0


def rainy_ratio(vol: RadarVolume, thresholds_dbz: Sequence[float]) -> np.ndarray:
    """Fraction of valid cells exceeding each reflectivity threshold, per
    altitude level; shape (Z, n_thresholds), averaged over the time axis."""
    t, z, _, _ = vol.shape
    out = np.zeros((z, len(thresholds_dbz)))
    for zi in range(z):
        m = vol.mask[zi]
        denom = t * int(m.sum())
        if denom == 0:
            continue
        vals = vol.data[:, zi][:, m]
        for j, thr in enumerate(thresholds_dbz):
            out[zi, j] = np.count_nonzero(vals > thr) / denom
    return out


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.size < 2:
        return float("nan")
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da * da).sum()) * float((db * db).sum()))
    if denom == 0.0:
        return float("nan")
    return float((da * db).sum() / denom)


def _pair_mean(z: int, rows: Iterable[tuple[int, int, float]]) -> np.ndarray:
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


def reflectivity_corr_matrix(vols: Iterable[RadarVolume]) -> np.ndarray:
    """Mean pixel-wise Pearson correlation between altitude-level pairs.

    Every frame of every volume is one sample; a sample qualifies only when
    echo above ECHO_THRESHOLD_DBZ is present at all altitude levels. Entries
    with no usable samples are NaN; the diagonal is exactly 1. vols may be
    any iterable, such as a generator that reads one volume at a time; an
    empty one, or one whose volumes differ in level count, raises
    ValueError.
    """
    z = None
    rows = []
    for n, vol in enumerate(vols):
        z = vol.shape[1] if z is None else z
        if vol.shape[1] != z:
            raise ValueError(f"volume {n} has Z={vol.shape[1]}, expected Z={z}")
        for frame in vol.data:
            if not all((frame[zi][vol.mask[zi]] > ECHO_THRESHOLD_DBZ).any()
                       for zi in range(z)):
                continue
            for i, j in combinations(range(z), 2):
                joint = vol.mask[i] & vol.mask[j]
                rows.append((i, j, _pearson(frame[i][joint], frame[j][joint])))
    if z is None:
        raise ValueError("no volumes given")
    return _pair_mean(z, rows)


def _echo(vol: RadarVolume) -> np.ndarray:
    """Z x Y x X: the cell holds finite dBZ above NO_ECHO_DBZ in some frame."""
    return ((vol.data > NO_ECHO_DBZ) & np.isfinite(vol.data)).any(axis=0)


def _pair_corr(mf: MotionField, echo: np.ndarray, mask: np.ndarray, i: int,
               j: int, component: str) -> float:
    """motion_pair_corr given the volume's echo cells and static mask."""
    region = (echo[i] | echo[j]) & mask[i] & mask[j]
    if region.sum() < 2:
        return float("nan")
    ui, vi = mf.level(i)
    uj, vj = mf.level(j)
    if component == "u":
        a, b = ui[region], uj[region]
    elif component == "v":
        a, b = vi[region], vj[region]
    elif component == "both":
        a = np.concatenate([ui[region], vi[region]])
        b = np.concatenate([uj[region], vj[region]])
    else:
        raise ValueError(f"component must be 'u', 'v' or 'both', got {component!r}")
    return _pearson(a, b)


def motion_pair_corr(mf: MotionField, vol: RadarVolume, i: int, j: int,
                     component: str = "both") -> float:
    """Pearson correlation between the motion fields of levels i and j over
    the precipitating region of the corresponding input slices.

    The region is the cells valid at both levels where either level holds
    finite dBZ above NO_ECHO_DBZ in some frame: exactly the cells whose
    summed time-mean rain rate of the two slices is above 0 mm/h. component
    selects 'u', 'v', or 'both' (u and v concatenated into one vector).
    Level indices outside [0, Z) raise ValueError.
    """
    if mf.nz != vol.shape[1]:
        raise ValueError("motion field and volume level counts differ")
    for idx in (i, j):
        if not 0 <= idx < mf.nz:
            raise ValueError(f"level index {idx} outside [0, {mf.nz}): "
                             f"the volume has {mf.nz} levels")
    return _pair_corr(mf, _echo(vol), vol.mask, i, j, component)


def motion_corr_matrix(mfs: Sequence[MotionField], inputs: Sequence[RadarVolume],
                       component: str = "both") -> np.ndarray:
    """Mean pairwise motion correlation matrix over a dataset of samples.

    Each pair correlation is motion_pair_corr's, over the same region.
    Every sample must have the first sample's level count; one that differs
    raises ValueError.
    """
    if len(mfs) != len(inputs):
        raise ValueError("need one input volume per motion field")
    z = mfs[0].nz
    rows = []
    for n, (mf, vol) in enumerate(zip(mfs, inputs)):
        if mf.nz != z:
            raise ValueError(f"sample {n} has Z={mf.nz}, expected Z={z}")
        if mf.nz != vol.shape[1]:
            raise ValueError("motion field and volume level counts differ")
        echo = _echo(vol)
        rows += [(i, j, _pair_corr(mf, echo, vol.mask, i, j, component))
                 for i, j in combinations(range(z), 2)]
    return _pair_mean(z, rows)


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


def coverage_ratio(vol: RadarVolume, threshold_dbz: float = 20.0) -> float:
    """Mean fraction of valid CMAX pixels exceeding the threshold across
    the volume's frames."""
    return float(rainy_ratio(cmax(vol), (threshold_dbz,))[0, 0])


def coverage_vs_corr_histogram(
    samples: Sequence[tuple[float, float]],
    coverage_edges: np.ndarray | None = None,
    corr_edges: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2-D density over (coverage ratio, motion correlation) sample pairs.

    Returns (counts, coverage_edges, corr_edges); counts sum to the number
    of finite samples.
    """
    if coverage_edges is None:
        coverage_edges = np.linspace(0.0, 1.0, 21)
    if corr_edges is None:
        corr_edges = np.linspace(-1.0, 1.0, 21)
    cov = np.asarray([s[0] for s in samples], dtype=np.float64)
    cor = np.asarray([s[1] for s in samples], dtype=np.float64)
    keep = np.isfinite(cov) & np.isfinite(cor)
    counts, xe, ye = np.histogram2d(cov[keep], cor[keep],
                                    bins=[coverage_edges, corr_edges])
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
    """Average ranks (1-based) of the values, ascending."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = np.zeros(len(values))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def rank_outliers(samples: Sequence[OutlierSample], k: int,
                  gap_minutes: float = 60.0) -> RankedOutliers:
    """Top-k samples by combined rank: descending coverage plus ascending
    correlation.

    Ties in the combined score break toward the earlier timestamp. Samples
    closer than gap_minutes to an already selected one are skipped so one
    long event does not fill the list. When fewer than k samples survive,
    all of them are returned with the exhausted flag set; k = 0 returns no
    samples and a negative k raises ValueError.
    """
    if k < 0:
        raise ValueError(f"top-k must be >= 0, got {k}")
    if not samples:
        return RankedOutliers(ids=[], exhausted=k > 0)
    cov_rank = _avg_ranks([-s.coverage for s in samples])
    cor_rank = _avg_ranks([s.correlation for s in samples])
    combined = cov_rank + cor_rank
    order = sorted(range(len(samples)),
                   key=lambda i: (combined[i], samples[i].timestamp,
                                  samples[i].sample_id))
    chosen: list[OutlierSample] = []
    for idx in order:
        if len(chosen) == k:
            break
        s = samples[idx]
        if any(abs((s.timestamp - c.timestamp).total_seconds()) < gap_minutes * 60.0
               for c in chosen):
            continue
        chosen.append(s)
    return RankedOutliers(ids=[s.sample_id for s in chosen],
                          exhausted=len(chosen) < k)


def count_components(plane: np.ndarray) -> int:
    """Number of 4-connected components of a boolean plane."""
    from scipy import ndimage
    _, n = ndimage.label(plane, structure=DIAMOND)
    return int(n)


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


def cell_split_diagnostic(volume_nowcast: Sequence[RainField],
                          threshold: float = 1.0) -> SplitDiagnostic:
    """Component counts of the thresholded CMAX composite at each lead,
    alongside per-level counts. The leads are taken one at a time, so a
    lazy sequence holds one field at a time."""
    if not volume_nowcast:
        raise ValueError("empty nowcast sequence")
    cmax_counts = []
    rainy = []
    level_counts = []
    for f in volume_nowcast:
        wet = (f.data >= threshold) & f.mask
        comp = wet.any(axis=0)
        cmax_counts.append(count_components(comp))
        rainy.append(int(comp.sum()))
        level_counts.append([count_components(plane) for plane in wet])
    return SplitDiagnostic(cmax_counts=cmax_counts,
                           level_counts=np.array(level_counts, dtype=int),
                           cmax_rainy_cells=rainy)
