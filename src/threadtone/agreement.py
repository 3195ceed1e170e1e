"""Intra-annotator reliability across replications, plus rank correlations.

All statistics operate on a complete R x N integer array (R replications,
N items) for one dimension, a slice of the items x dimensions x
replications score array. Items with any missing replication are excluded
upstream so every metric is computed on a common item set.

Krippendorff's alpha uses the interval (squared-difference) distance:
alpha = 1 - D_o/D_e, with the observed disagreement pooled over within-item
pairable values and the expected disagreement over all cross-item value
pairs. Fleiss' kappa treats each integer scale point as a nominal category.
Dispersion statistics (MAPD, exact agreement, agreement within +-1) are
pairwise proportions averaged over items; a flag switches exact/within-1 to
the all-rater unanimity variant.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import astuple, dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import Sequence

import numpy as np

from .dimensions import NAMES, AnnotationScale
from .errors import DegenerateData

log = logging.getLogger(__name__)



def krippendorff_alpha_interval(ratings: np.ndarray) -> float:
    """alpha = 1 - D_o/D_e with squared-difference distance, over
    ``ratings[r, i]``, replication r of item i.

    When every value is identical the expected disagreement is zero; that
    degenerate case is reported as alpha = 1.
    """
    values = ratings.astype(float)
    n_raters, n_items = values.shape
    if n_raters < 2 or n_items < 2:
        raise ValueError("need at least 2 raters and 2 items")
    n = n_raters * n_items

    col_sum = values.sum(axis=0)
    col_sumsq = (values ** 2).sum(axis=0)
    # per item, sum over ordered pairs i != j of (v_i - v_j)^2
    within = 2.0 * n_raters * col_sumsq - 2.0 * col_sum ** 2
    d_obs = within.sum() / (n_raters - 1) / n

    total = values.sum()
    total_sq = (values ** 2).sum()
    d_exp = (2.0 * n * total_sq - 2.0 * total ** 2) / (n * (n - 1))
    if d_exp == 0.0:
        return 1.0
    return float(1.0 - d_obs / d_exp)


def fleiss_kappa(ratings: np.ndarray,
                 scale: AnnotationScale = AnnotationScale()) -> float:
    """Fleiss' kappa of raters x items ``ratings`` over the category-count
    table, categories being the scale's integer points. A single category
    used everywhere gives expected agreement 1 and is reported as kappa = 1."""
    n_raters, n_items = ratings.shape
    if n_raters < 2:
        raise ValueError("need at least 2 raters")
    categories = np.arange(scale.min, scale.max + 1)
    counts = np.zeros((n_items, len(categories)), dtype=float)
    for ci, cat in enumerate(categories):
        counts[:, ci] = (ratings == cat).sum(axis=0)

    p_item = ((counts ** 2).sum(axis=1) - n_raters) / (n_raters * (n_raters - 1))
    p_bar = p_item.mean()
    p_cat = counts.sum(axis=0) / (n_items * n_raters)
    p_exp = float((p_cat ** 2).sum())
    if p_exp >= 1.0:
        return 1.0
    return float((p_bar - p_exp) / (1.0 - p_exp))


@dataclass(frozen=True)
class DispersionStats:
    mapd_mean: float
    exact_agreement: float
    pct_within_1: float
    mean_range: float
    mean_sd: float


def dispersion_stats(ratings: np.ndarray,
                     unanimity: bool = False) -> DispersionStats:
    """Item-mean dispersion of raters x items replication scores.

    Per item, over all rater pairs: mean absolute difference (MAPD), the
    fraction of pairs in exact agreement, the fraction within +-1, plus the
    range and the sample (R-1) standard deviation. With ``unanimity=True``
    the agreement proportions instead ask whether *all* raters coincide
    (resp. span at most 1)."""
    values = ratings.astype(float)
    n_raters, _ = values.shape
    if n_raters < 2:
        raise ValueError("need at least 2 raters")
    iu, ju = np.triu_indices(n_raters, k=1)
    diffs = np.abs(values[iu, :] - values[ju, :])  # pairs x items

    mapd = diffs.mean(axis=0)
    rng = values.max(axis=0) - values.min(axis=0)
    sd = values.std(axis=0, ddof=1)
    if unanimity:
        exact = (rng == 0).astype(float)
        within1 = (rng <= 1).astype(float)
    else:
        exact = (diffs == 0).mean(axis=0)
        within1 = (diffs <= 1).mean(axis=0)
    return DispersionStats(
        mapd_mean=float(mapd.mean()),
        exact_agreement=float(exact.mean()),
        pct_within_1=float(within1.mean()),
        mean_range=float(rng.mean()),
        mean_sd=float(sd.mean()),
    )


# --- rank correlation -------------------------------------------------------------

def midranks(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n with ties receiving the average of their rank block."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    # tie block b spans sorted positions first[b]..last[b]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(arr)] - 1
    ranks = np.empty(len(arr), dtype=float)
    ranks[order] = np.repeat((first + last) / 2.0 + 1.0, last - first + 1)
    return ranks


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of midranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    if len(x) < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateData("rank correlation undefined for constant input")
    rx, ry = (ranks - ranks.mean() for ranks in (midranks(x), midranks(y)))
    # elementwise sums, not BLAS dot products, which wake their threads on
    # each call; centred midranks are multiples of 0.5, so every partial
    # sum is exact (below n ~ 200k) and the order of summation is free
    return float((rx * ry).sum() / np.sqrt((rx * rx).sum() * (ry * ry).sum()))


def correlation_report(post_ids: Sequence[str],
                       metric: np.ndarray) -> np.ndarray:
    """Pairwise Spearman correlations of post-level means, given as a
    posts x dimensions array in ``NAMES`` order (NaN where absent), over
    the posts with all dimensions present in post-id order. Symmetric with
    unit diagonal; a cell that is undefined (fewer than three posts, or a
    constant series) is nan."""
    present = np.flatnonzero(~np.isnan(metric).any(axis=1)).tolist()
    posts = sorted(present, key=post_ids.__getitem__)
    series = metric[posts].T
    out = np.eye(len(NAMES))
    for i, j in combinations(range(len(NAMES)), 2):
        try:
            out[i, j] = out[j, i] = spearman_rho(series[i], series[j])
        except (ValueError, DegenerateData):
            out[i, j] = out[j, i] = np.nan
    if np.isnan(out).any():
        log.warning("Spearman correlation undefined for some pairs over %d "
                    "posts; written as nan", len(posts))
    return out


# --- per-dimension report -----------------------------------------------------------

@dataclass(frozen=True)
class DimensionAgreement:
    dimension: str
    n_items: int
    n_raters: int
    krippendorff_alpha: float
    fleiss_kappa: float
    mapd_mean: float
    exact_agreement: float
    pct_within_1: float
    mean_range: float
    mean_sd: float


def agreement_report(items: Sequence[str], scores: np.ndarray,
                     scale: AnnotationScale = AnnotationScale(),
                     unanimity: bool = False) -> list[DimensionAgreement]:
    """Per-dimension reliability of ``scores[i, d, r]``, replication r of
    dimension d (``DIMENSIONS`` order) for item i, with the items in key
    order. A dimension with fewer than two replications or two items gets
    nan statistics."""
    order = sorted(range(len(items)), key=items.__getitem__)
    report = []
    undefined = []
    for d, name in enumerate(NAMES):
        # the C-contiguous items x replications block, as rows of scores
        # build it, so every reduction adds in the same order
        values = np.ascontiguousarray(scores[order, d, :], dtype=np.int64)
        values = values.T if order else values.reshape(0, 0)
        n_raters, n_items = values.shape
        if n_raters < 2 or n_items < 2:
            undefined.append(name)
            stats = [float("nan")] * 7
        else:
            stats = [krippendorff_alpha_interval(values),
                     fleiss_kappa(values, scale),
                     *astuple(dispersion_stats(values, unanimity=unanimity))]
        report.append(DimensionAgreement(name, n_items, n_raters, *stats))
    if undefined:
        log.warning("agreement undefined for %s (needs 2 items and 2 "
                    "replications); written as nan", ", ".join(undefined))
    return report


AGREEMENT_CSV_HEADER = [field.name for field in fields(DimensionAgreement)]


def write_agreement_csv(report: list[DimensionAgreement], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGREEMENT_CSV_HEADER)
        writer.writerows(astuple(row) for row in report)


def write_correlation_csv(matrix: np.ndarray, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dimension", *NAMES])
        for i, name in enumerate(NAMES):
            writer.writerow([name] + [repr(float(v)) for v in matrix[i]])


def render_correlations(matrix: np.ndarray) -> str:
    """Two-decimal text rendering of the Spearman matrix."""
    width = max(len(n) for n in NAMES)
    lines = ["pairwise Spearman correlations of post-level means"]
    header = " " * (width + 2) + "  ".join(n.rjust(width) for n in NAMES)
    lines.append(header)
    for i, name in enumerate(NAMES):
        cells = "  ".join(f"{matrix[i, j]:.2f}".rjust(width)
                          for j in range(len(NAMES)))
        lines.append(f"{name.ljust(width)}  {cells}")
    return "\n".join(lines) + "\n"
