"""OLS with discussion-clustered sandwich standard errors, models M1-M6.

The fit solves the normal equations X'X b = X'y with ``numpy.linalg.solve``
and takes the sandwich's bread, (X'X)^-1, from ``numpy.linalg.inv`` (both
LAPACK). Both first pass one rank check that does not depend on column
scale: X'X is divided by the outer product of the square roots of its
diagonal, and a zero diagonal entry, or a smallest singular value of that
unit-diagonal matrix at most 1e-10 times the largest, raises SingularDesign,
so a column's units do not decide whether a design fits. The covariance of
the estimates is the cluster sandwich

    (X'X)^-1 ( sum_d X_d' e_d e_d' X_d ) (X'X)^-1

with one score block per discussion d and no small-sample factor by default
(CR1, G/(G-1) * (n-1)/(n-k), is available behind a flag). With singleton
clusters the middle sum collapses to sum_i x_i x_i' e_i^2, i.e. plain HC0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from itertools import compress
from statistics import NormalDist
from typing import Sequence

import numpy as np
from scipy import special as scipy_special

from .dimensions import DIMENSIONS
from .errors import EmptySample, InsufficientSample, SingularDesign, StatsError
from .features import FeatureTable

log = logging.getLogger(__name__)

_RANK_RTOL = 1e-10


def _gram(x: np.ndarray) -> np.ndarray:
    """X'X, after the scale-free rank check: a zero diagonal entry, or a
    smallest singular value of X'X scaled to unit diagonal at most _RANK_RTOL
    times the largest, raises SingularDesign."""
    gram = x.T @ x
    norms = np.sqrt(np.diag(gram))
    if not norms.all():
        raise SingularDesign("all-zero design column")
    singular = np.linalg.svd(gram / np.outer(norms, norms), compute_uv=False)
    if singular[-1] <= _RANK_RTOL * singular[0]:
        raise SingularDesign("rank-deficient design")
    return gram


def ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients and residuals via the normal equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be n x k and y length n")
    n, k = x.shape
    if n <= k:
        raise InsufficientSample(f"n={n} observations for k={k} parameters")
    beta = np.linalg.solve(_gram(x), x.T @ y)
    residuals = y - x @ beta
    return beta, residuals


def cluster_robust_vcov(x: np.ndarray, residuals: np.ndarray,
                        cluster_ids: Sequence, small_sample: bool = False,
                        ) -> np.ndarray:
    """Sandwich covariance with one score block per cluster (CR0).

    ``small_sample=True`` applies the CR1 factor G/(G-1) * (n-1)/(n-k). A
    single cluster is permitted but logged, since the estimator is then not
    meaningful for inference.
    """
    x = np.asarray(x, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    n, k = x.shape
    if residuals.shape != (n,) or len(cluster_ids) != n:
        raise ValueError("residuals and cluster_ids must align with x rows")
    _, inverse = np.unique(np.asarray(cluster_ids), return_inverse=True)
    n_clusters = int(inverse.max()) + 1
    if n_clusters < 2:
        log.warning("cluster-robust vcov with a single cluster")

    scores = x * residuals[:, None]
    sums = np.zeros((n_clusters, k))
    np.add.at(sums, inverse, scores)
    meat = sums.T @ sums

    bread = np.linalg.inv(_gram(x))
    vcov = bread @ meat @ bread
    vcov = (vcov + vcov.T) / 2.0
    if small_sample and n_clusters > 1 and n > k:
        vcov = vcov * (n_clusters / (n_clusters - 1.0)) * ((n - 1.0) / (n - k))
    return vcov


def p_value(estimate: float, se: float, n_clusters: int,
            dist: str = "t") -> float:
    """Two-sided p under Student's t with (n_clusters - 1) df, or the normal
    limit with ``dist='normal'``. A zero SE with a non-zero estimate is a
    degenerate case reported as p = 0. The t reference needs two clusters
    (InsufficientSample otherwise)."""
    if se < 0:
        raise ValueError("se must be non-negative")
    if se == 0.0:
        if estimate == 0.0:
            return 1.0
        log.warning("degenerate SE = 0 with non-zero estimate; reporting p = 0")
        return 0.0
    t = estimate / se
    if dist == "normal":
        return 2.0 * (1.0 - NormalDist().cdf(abs(t)))
    if dist == "t":
        df = n_clusters - 1
        if df < 1:
            raise InsufficientSample(
                "need at least 2 clusters for t-based p-values")
        return float(2.0 * scipy_special.stdtr(df, -abs(t)))
    raise ValueError(f"unknown reference distribution {dist!r}")


def critical_value(n_clusters: int, dist: str = "t") -> float:
    """Two-sided 95% critical value of ``p_value``'s reference distribution:
    Student's t with (n_clusters - 1) df (InsufficientSample below two
    clusters), or the normal limit with ``dist='normal'``."""
    if dist == "normal":
        return NormalDist().inv_cdf(0.975)
    if dist == "t":
        if n_clusters < 2:
            raise InsufficientSample(
                "need at least 2 clusters for a t critical value")
        return float(scipy_special.stdtrit(n_clusters - 1, 0.975))
    raise ValueError(f"unknown reference distribution {dist!r}")


# --- significance stars -----------------------------------------------------------

STAR_SCHEMES: dict[str, tuple[tuple[float, str], ...]] = {
    # conventional mapping: *** / ** / * / dagger
    "default": ((0.001, "***"), (0.01, "**"), (0.05, "*"), (0.1, "†")),
    # the four-star variant some journals print
    "four-star": ((0.001, "****"), (0.01, "***"), (0.05, "**"), (0.1, "+")),
}


def stars_for(p: float, scheme: str = "default") -> str:
    for threshold, symbol in STAR_SCHEMES[scheme]:
        if p < threshold:
            return symbol
    return ""


# --- model specifications -----------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """A linear model over FeatureTable columns.

    ``terms`` are non-intercept regressors in design order; "a:b" denotes
    the elementwise product of a and b. ``requires`` lists the fields
    that must be present for the row to enter the sample (which may include
    fields the model itself does not use, e.g. M6's older-sibling filter).
    """

    id: str
    terms: tuple[str, ...]
    requires: tuple[str, ...]
    description: str

    def base_fields(self) -> set[str]:
        fields: set[str] = set(self.requires)
        for term in self.terms:
            fields.update(term.split(":"))
        return fields


MODEL_SPECS: dict[str, ModelSpec] = {
    "M1": ModelSpec("M1", ("dt_prev",), ("dt_prev",),
                    "score vs hours since the previous post in the discussion"),
    "M2": ModelSpec("M2", ("dt_parent",), ("dt_parent",),
                    "score vs hours since the parent post"),
    "M3": ModelSpec("M3", ("sib_older_mean",), ("sib_older_mean",),
                    "alignment with the mean score of older siblings"),
    "M4": ModelSpec("M4", ("parent_metric",), ("parent_metric",),
                    "alignment with the parent post's score"),
    "M5": ModelSpec("M5",
                    ("parent_metric", "sib_older_mean",
                     "parent_metric:sib_older_mean"),
                    ("parent_metric", "sib_older_mean"),
                    "parent and older-sibling alignment with interaction"),
    "M6": ModelSpec("M6",
                    ("parent_metric", "br_neg", "parent_metric:br_neg"),
                    ("parent_metric", "sib_older_mean", "br_neg"),
                    "parent alignment moderated by the branch-root sign"),
}

MODEL_IDS = tuple(MODEL_SPECS)

# The paper's grid, ordered by (model id, dimension name): M1-M5 on every
# dimension, M6 on the stance dimension only.
DEFAULT_GRID: tuple[tuple[str, str], ...] = tuple(
    (model_id, name) for model_id in MODEL_IDS[:5]
    for name in sorted(d.name for d in DIMENSIONS)
) + (("M6", "disagree_vs_agree"),)


def get_model_spec(model_id: str, m6_relax_sibling_filter: bool = False) -> ModelSpec:
    spec = MODEL_SPECS[model_id]
    if model_id == "M6" and m6_relax_sibling_filter:
        spec = replace(spec, requires=("parent_metric", "br_neg"))
    return spec


def filter_rows(spec: ModelSpec, features: FeatureTable,
                dimension: str) -> np.ndarray:
    """Mask of the rows with the response and every required field present."""
    mask = ~np.isnan(features.metric[dimension])
    for name in spec.base_fields():
        mask &= ~np.isnan(features.column(name, dimension))
    return mask


# --- fitted tables -------------------------------------------------------------------

@dataclass(frozen=True)
class TermEstimate:
    term: str
    estimate: float
    std_error: float
    p_value: float


@dataclass(frozen=True)
class RegressionTable:
    model_id: str
    dimension: str
    terms: tuple[TermEstimate, ...]
    n_obs: int
    n_clusters: int
    r_squared: float


@dataclass(frozen=True)
class FitResult:
    spec: ModelSpec
    dimension: str
    x: np.ndarray
    y: np.ndarray
    beta: np.ndarray
    residuals: np.ndarray
    vcov: np.ndarray
    cluster_ids: tuple[str, ...]

    @property
    def n_clusters(self) -> int:
        return len(set(self.cluster_ids))


def fit_model(spec: ModelSpec, features: FeatureTable, dimension: str,
              cr_correction: bool = False) -> FitResult:
    """Filter, assemble the design (intercept first), fit and compute the
    cluster sandwich for one (model, dimension)."""
    mask = filter_rows(spec, features, dimension)
    n = int(mask.sum())
    if n == 0:
        raise EmptySample("no rows pass the filter")
    x = np.ones((n, 1 + len(spec.terms)))
    for j, term in enumerate(spec.terms, start=1):
        first, *rest = term.split(":")
        column = features.column(first, dimension)[mask]
        for name in rest:
            column = column * features.column(name, dimension)[mask]
        x[:, j] = column
    y = features.metric[dimension][mask]
    clusters = tuple(compress(features.discussion_id, mask.tolist()))

    beta, residuals = ols_fit(x, y)
    vcov = cluster_robust_vcov(x, residuals, clusters,
                               small_sample=cr_correction)
    return FitResult(spec=spec, dimension=dimension, x=x, y=y, beta=beta,
                     residuals=residuals, vcov=vcov, cluster_ids=clusters)


def table_from_fit(fit: FitResult, pvalue_dist: str = "t") -> RegressionTable:
    ses = np.sqrt(np.maximum(np.diag(fit.vcov), 0.0))
    n_clusters = fit.n_clusters
    names = ("intercept",) + fit.spec.terms
    terms = tuple(
        TermEstimate(
            term=name,
            estimate=float(fit.beta[j]),
            std_error=float(ses[j]),
            p_value=p_value(float(fit.beta[j]), float(ses[j]), n_clusters,
                            dist=pvalue_dist),
        )
        for j, name in enumerate(names)
    )
    sst = float(((fit.y - fit.y.mean()) ** 2).sum())
    ssr = float((fit.residuals ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst > 0 else float("nan")
    return RegressionTable(model_id=fit.spec.id, dimension=fit.dimension,
                           terms=terms, n_obs=len(fit.y),
                           n_clusters=n_clusters, r_squared=r_squared)


def run_model(spec: ModelSpec, features: FeatureTable, dimension: str,
              cr_correction: bool = False, pvalue_dist: str = "t") -> RegressionTable:
    """Fit one model for one dimension with discussion-clustered SEs."""
    fit = fit_model(spec, features, dimension, cr_correction=cr_correction)
    return table_from_fit(fit, pvalue_dist=pvalue_dist)


def run_all(features: FeatureTable,
            grid: Sequence[tuple[str, str]] = DEFAULT_GRID,
            cr_correction: bool = False, pvalue_dist: str = "t",
            m6_relax_sibling_filter: bool = False,
            ) -> tuple[list[RegressionTable], dict[str, str]]:
    """Fit every (model id, dimension) of ``grid`` in order. Per-model
    failures (StatsError) are collected by "model/dimension", not raised."""
    tables: list[RegressionTable] = []
    errors: dict[str, str] = {}
    for model_id, dim_name in grid:
        spec = get_model_spec(model_id, m6_relax_sibling_filter)
        try:
            tables.append(run_model(spec, features, dim_name,
                                    cr_correction=cr_correction,
                                    pvalue_dist=pvalue_dist))
        except StatsError as exc:
            errors[f"{model_id}/{dim_name}"] = str(exc)
    return tables, errors
