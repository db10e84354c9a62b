"""Continuous and categorical forecast verification per lead time.

Scores are micro-averaged: contingency counts and error sums are pooled
across samples first, then turned into metrics, which keeps empty-event
samples from destabilizing the averages. Every field is collapsed to its
column maximum (grid.cmax_field) before scoring. Degenerate denominators
yield NaN sentinels that aggregation simply skips.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import NoOverlapError
from .grid import RainField, cmax_field

#: rain-rate thresholds (mm/h) of the categorical scores, lowest first
THRESHOLDS_MMH = (1.0, 5.0, 10.0)


@dataclass
class ContingencyTable:
    hits: int = 0
    misses: int = 0
    false_alarms: int = 0
    correct_negatives: int = 0

    def __post_init__(self):
        for name in ("hits", "misses", "false_alarms", "correct_negatives"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.hits + self.misses + self.false_alarms + self.correct_negatives


def _joint(pred: RainField, obs: RainField):
    if pred.data.shape != obs.data.shape:
        raise ValueError(
            f"shape mismatch: pred {pred.data.shape} vs obs {obs.data.shape}")
    valid = pred.mask & obs.mask
    # float32 rates are scored as their float64 copy
    return (pred.data[valid].astype(np.float64, copy=False),
            obs.data[valid].astype(np.float64, copy=False))


def _sums(p: np.ndarray, o: np.ndarray) -> tuple[float, float, float, int]:
    """Sums of the error, absolute error and squared error over joined
    cells, and the cell count."""
    d = p - o
    return float(d.sum()), float(np.abs(d).sum()), float((d * d).sum()), int(d.size)


def _counts(p: np.ndarray, o: np.ndarray, threshold: float) -> tuple[int, int, int, int]:
    """(hits, misses, false alarms, correct negatives) over joined cells at
    value >= threshold."""
    py = p >= threshold
    oy = o >= threshold
    hits = int(np.count_nonzero(py & oy))
    n_py, n_oy = int(np.count_nonzero(py)), int(np.count_nonzero(oy))
    # the other three cells from the margins
    return hits, n_oy - hits, n_py - hits, p.size - n_py - n_oy + hits


def continuous_metrics(pred: RainField, obs: RainField) -> tuple[float, float, float]:
    """(mean error, mean absolute error, mean squared error) over jointly
    valid cells."""
    p, o = _joint(pred, obs)
    if p.size == 0:
        raise NoOverlapError("no jointly valid cells")
    err, ab, sq, n = _sums(p, o)
    return err / n, ab / n, sq / n


def contingency(pred: RainField, obs: RainField,
                threshold: float) -> ContingencyTable:
    """Binarize both fields at value >= threshold and count the four
    categories over jointly valid cells."""
    return ContingencyTable(*_counts(*_joint(pred, obs), threshold))


def precision_recall_ets(t: ContingencyTable) -> tuple[float, float, float]:
    """Precision, recall, and the Equitable Threat Score.

    ETS corrects the hit count for hits expected by random chance:
    hits_rand = (h+fa)(h+m)/N, ets = (h - hits_rand)/(h + m + fa - hits_rand).
    Degenerate denominators return NaN (undefined-as-missing).
    """
    h, m, fa = t.hits, t.misses, t.false_alarms
    n = t.total
    precision = h / (h + fa) if (h + fa) > 0 else float("nan")
    recall = h / (h + m) if (h + m) > 0 else float("nan")
    if n == 0:
        return precision, recall, float("nan")
    hits_rand = (h + fa) * (h + m) / n
    denom = h + m + fa - hits_rand
    ets = (h - hits_rand) / denom if abs(denom) > 1e-12 else float("nan")
    return precision, recall, ets


@dataclass
class VerificationReport:
    """Micro-averaged scores per lead time and per (lead, threshold)."""

    leads: list[int]
    thresholds: list[float]
    samples: int
    #: per lead: error, absolute-error and squared-error sums, cell count
    _continuous: dict[int, tuple[float, float, float, int]] = field(default_factory=dict)
    tables: dict[tuple[int, float], ContingencyTable] = field(default_factory=dict)

    def continuous(self, lead: int) -> tuple[float, float, float]:
        err, ab, sq, n = self._continuous[lead]
        if n == 0:
            raise NoOverlapError(f"no valid cells accumulated at lead {lead}")
        return err / n, ab / n, sq / n

    def categorical(self, lead: int, threshold: float) -> tuple[float, float, float]:
        return precision_recall_ets(self.tables[(lead, threshold)])


def _added(acc: tuple, new: tuple) -> tuple:
    return tuple(a + b for a, b in zip(acc, new))


#: marks the end of an iterable
_MISSING = object()


def verify_nowcast(
        model_outputs: Iterable[Iterable[RainField]],
        observations: Iterable[Iterable[RainField]]) -> VerificationReport:
    """Score forecast samples against observed ones, independently per lead
    time, with the categorical scores at each of THRESHOLDS_MMH.

    Each argument is an iterable of samples, and each sample an iterable of
    per-lead RainFields, taken at their column maximum; counts and error
    sums are pooled over the samples. Fields are taken one lead at a time,
    so a lazy sample holds one lead at a time, and the sample and lead
    counts are checked as they are consumed. No samples at all is a
    ValueError.
    """
    sums, counts = {}, {}
    samples = end = 0
    for preds, obss in itertools.zip_longest(model_outputs, observations,
                                             fillvalue=_MISSING):
        if preds is _MISSING or obss is _MISSING:
            raise ValueError("forecast and observation sample counts differ")
        samples += 1
        preds, obss = iter(preds), iter(obss)
        for lead in itertools.count(1):
            pred, obs = next(preds, _MISSING), next(obss, _MISSING)
            if pred is _MISSING or obs is _MISSING:
                break
            p, o = _joint(cmax_field(pred), cmax_field(obs))
            sums[lead] = _added(sums.get(lead, (0.0, 0.0, 0.0, 0)), _sums(p, o))
            for thr in THRESHOLDS_MMH:
                counts[lead, thr] = _added(counts.get((lead, thr), (0, 0, 0, 0)),
                                           _counts(p, o, thr))
            # a lazy iterable makes the next lead without this one
            del pred, obs, p, o
        # both iterables end at the first sample's lead count
        if pred is not obs or (samples > 1 and lead != end):
            raise ValueError("every sample must cover the same lead times")
        end = lead
    if not samples:
        raise ValueError("no forecasts given")
    tables = {key: ContingencyTable(*c) for key, c in counts.items()}
    return VerificationReport(leads=list(range(1, end)),
                              thresholds=list(THRESHOLDS_MMH), samples=samples,
                              _continuous=sums, tables=tables)
