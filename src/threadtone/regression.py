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

p-values and critical values use Student's t with nu = G - 1 degrees of
freedom and need only ``math``. The two-sided tail at t is the regularized
incomplete beta I_x(nu/2, 1/2) with x = nu / (nu + t^2), written through
u = t^2 / nu so that log x = -log1p(u) and 1 - x = u / (1 + u) keep their
digits. For small t (1 - x at most 1.5 / (nu/2 + 2.5)) it is one minus the
complement's continued fraction; otherwise, for nu >= 30 and t^2 < nu, the
asymptotic expansion BGRAT of DiDonato and Morris (1992, ACM TOMS 708), a
series in the complementary error function; otherwise the continued
fraction on x. Both fractions use the modified Lentz method. Gamma(a + 1/2) / Gamma(a) is
``math.gamma``'s quotient below a = 15 and the asymptotic series of its
logarithm above, never a difference of ``lgamma`` values (which loses
~1e-12 at nu in the thousands). Against a 40-digit evaluation on 19,703
draws of nu in 1-10,000 and t in [e^-8, e^4] with p >= 1e-300, the tail was
within 1.3e-14 relative where p >= 1e-10 and within 2e-13 below, where the
rounding of t^2 alone moves p by about |ln p| ulps. The 0.975 quantile comes
from Newton's method on the tail from the normal quantile, is cached per nu,
and was within 4e-16 relative of the 40-digit root.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .dimensions import NAMES
from .errors import EmptySample, InsufficientSample, SingularDesign, StatsError
from .features import FeatureTable, cluster_codes

log = logging.getLogger(__name__)

_RANK_RTOL = 1e-10


def _gram(x: np.ndarray) -> np.ndarray:
    """X'X, after the scale-free rank check: a diagonal entry that is zero
    or subnormal (the column's squared norm underflows, so X'X can no
    longer be solved or inverted), or a smallest singular value of X'X
    scaled to unit diagonal at most _RANK_RTOL times the largest, raises
    SingularDesign."""
    gram = x.T @ x
    if np.diag(gram).min() < np.finfo(float).tiny:
        raise SingularDesign("all-zero or underflowing design column")
    norms = np.sqrt(np.diag(gram))
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

    ``cluster_ids`` is an integer array, such as ``FeatureTable.cluster``'s
    codes, or any other sequence of ids, which ``cluster_codes`` codes; the
    score blocks are summed in sorted cluster order. ``small_sample=True``
    applies the CR1 factor G/(G-1) * (n-1)/(n-k). A single cluster is
    permitted but logged, since the estimator is then not meaningful for
    inference.
    """
    x = np.asarray(x, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    n, k = x.shape
    if residuals.shape != (n,) or len(cluster_ids) != n:
        raise ValueError("residuals and cluster_ids must align with x rows")
    if isinstance(cluster_ids, np.ndarray) and cluster_ids.dtype.kind in "iu":
        _, inverse = np.unique(cluster_ids, return_inverse=True)
    else:
        inverse = cluster_codes(cluster_ids)
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


# --- Student's t reference ----------------------------------------------------------

_Z975 = NormalDist().inv_cdf(0.975)


def _bgrat_coefficients() -> tuple[float, ...]:
    """BGRAT's d_n for b = 1/2, n = 1..30, from c_n = 1 / (2n + 1)! and
    d_n = (b - 1) c_n + (1/n) sum_{i<n} (i b - n) c_i d_{n-i}."""
    c: list[float] = []
    d: list[float] = []
    for n in range(1, 31):
        c.append(1.0 / math.factorial(2 * n + 1))
        s = sum((i / 2 - n) * c[i - 1] * d[n - i - 1] for i in range(1, n))
        d.append(-c[-1] / 2 + s / n)
    return tuple(d)


_BGRAT_D = _bgrat_coefficients()


def _gamma_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a); the series' first omitted term is below
    1e-17 from a = 15."""
    if a < 15.0:
        return math.gamma(a + 0.5) / math.gamma(a)
    z = 1.0 / (a * a)
    series = -1 / 8 + z * (1 / 192 + z * (-1 / 640 + z * (
        17 / 14336 + z * (-31 / 18432 + z * 691 / 180224))))
    return math.sqrt(a) * math.exp(series / a)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """I_x(a, b) divided by x^a (1 - x)^b / (a B(a, b)): the continued
    fraction by the modified Lentz method, fast for x < (a + 1)/(a + b + 2)."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 200):
        aa = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        aa = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / (1.0 + aa * d)
        c = 1.0 + aa / c
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def _bgrat_tail(a: float, log1p_u: float) -> float:
    """I_x(a, 1/2) for a >= 15 from -log x = log1p(u): DiDonato and Morris's
    expansion in the complementary error function, with every term scaled by
    exp(-z) sqrt(z / pi) so that none overflows."""
    nu = a - 0.25
    z = nu * log1p_u
    power = math.exp(-z) * math.sqrt(z / math.pi)
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log1p_u * log1p_u
    j = total = math.erfc(math.sqrt(z))
    for n, d_n in enumerate(_BGRAT_D, start=1):
        bp2n = 2 * n - 1.5
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * power) * v
        power *= t2
        term = d_n * j
        total += term
        if abs(term) <= 1e-16 * total:
            break
    return _gamma_ratio(a) / math.sqrt(nu) * total


def _t_tail(df: int, t: float) -> float:
    """P(|T| > t) for t >= 0 under Student's t with df degrees of freedom."""
    a = df / 2
    u = t * t / df
    if u == math.inf:
        # t^2 overflowed: the tail is below 1e-154 for df = 1, below the
        # smallest double for df >= 3
        return 0.0
    y = u / (1.0 + u)
    log1p_u = math.log1p(u)
    small_t = y <= 1.5 / (a + 2.5)
    if a >= 15.0 and not small_t and y < 0.5:
        return _bgrat_tail(a, log1p_u)
    front = (_gamma_ratio(a) / (a * math.sqrt(math.pi))
             * math.exp(-a * log1p_u) * math.sqrt(y))
    if small_t:
        return 1.0 - 2.0 * a * front * _beta_fraction(0.5, a, y)
    return front * _beta_fraction(a, 0.5, 1.0 - y)


@lru_cache(maxsize=None)
def _t_critical(df: int) -> float:
    """The t with _t_tail(df, t) = 0.05, by Newton's method from the normal
    quantile. The tail is convex for t > 0 and lies above the normal one, so
    the iterates rise to the root; they stop when a step no longer raises t."""
    a = df / 2
    density_scale = 2.0 * _gamma_ratio(a) / math.sqrt(math.pi * df)
    t = _Z975
    for _ in range(100):
        density = density_scale * math.exp(-(a + 0.5) * math.log1p(t * t / df))
        stepped = t + (_t_tail(df, t) - 0.05) / density
        if not stepped > t:
            break
        t = stepped
    return t


def p_value(estimate: float, se: float, n_clusters: int,
            dist: str = "t") -> float:
    """Two-sided p under Student's t with (n_clusters - 1) df, or the normal
    limit with ``dist='normal'``. A zero SE with a non-zero estimate is a
    degenerate case reported as p = 0; a NaN estimate or SE gives NaN. The t
    reference needs two clusters (InsufficientSample otherwise)."""
    if se < 0:
        raise ValueError("se must be non-negative")
    if se == 0.0:
        if math.isnan(estimate):
            return math.nan
        if estimate == 0.0:
            return 1.0
        log.warning("degenerate SE = 0 with non-zero estimate; reporting p = 0")
        return 0.0
    t = abs(estimate / se)
    if dist == "normal":
        return math.erfc(t * math.sqrt(0.5))
    if dist == "t":
        df = n_clusters - 1
        if df < 1:
            raise InsufficientSample(
                "need at least 2 clusters for t-based p-values")
        return math.nan if math.isnan(t) else _t_tail(df, t)
    raise ValueError(f"unknown reference distribution {dist!r}")


def critical_value(n_clusters: int, dist: str = "t") -> float:
    """Two-sided 95% critical value of ``p_value``'s reference distribution:
    Student's t with (n_clusters - 1) df (InsufficientSample below two
    clusters), or the normal limit with ``dist='normal'``."""
    if dist == "normal":
        return _Z975
    if dist == "t":
        if n_clusters < 2:
            raise InsufficientSample(
                "need at least 2 clusters for a t critical value")
        return _t_critical(n_clusters - 1)
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
    for name in sorted(NAMES)
) + (("M6", "disagree_vs_agree"),)


def get_model_spec(model_id: str, m6_relax_sibling_filter: bool = False) -> ModelSpec:
    spec = MODEL_SPECS[model_id]
    if model_id == "M6" and m6_relax_sibling_filter:
        spec = replace(spec, requires=("parent_metric", "br_neg"))
    return spec


def filter_rows(spec: ModelSpec, features: FeatureTable,
                dimension: str) -> np.ndarray:
    """Mask of the rows with the response and every required field present."""
    mask = ~np.isnan(features.column("metric", dimension))
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
    cluster: np.ndarray  # the rows' ``FeatureTable.cluster`` codes
    n_clusters: int


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
    y = features.column("metric", dimension)[mask]
    cluster = features.cluster[mask]

    beta, residuals = ols_fit(x, y)
    vcov = cluster_robust_vcov(x, residuals, cluster,
                               small_sample=cr_correction)
    return FitResult(spec=spec, dimension=dimension, x=x, y=y, beta=beta,
                     residuals=residuals, vcov=vcov, cluster=cluster,
                     n_clusters=int(np.count_nonzero(np.bincount(cluster))))


def run_model(spec: ModelSpec, features: FeatureTable, dimension: str,
              cr_correction: bool = False, pvalue_dist: str = "t") -> RegressionTable:
    """Fit one model for one dimension with discussion-clustered SEs."""
    fit = fit_model(spec, features, dimension, cr_correction=cr_correction)
    ses = np.sqrt(np.maximum(np.diag(fit.vcov), 0.0))
    terms = tuple(
        TermEstimate(term=name, estimate=float(beta), std_error=float(se),
                     p_value=p_value(float(beta), float(se), fit.n_clusters,
                                     dist=pvalue_dist))
        for name, beta, se in zip(("intercept",) + spec.terms, fit.beta, ses)
    )
    sst = float(((fit.y - fit.y.mean()) ** 2).sum())
    ssr = float((fit.residuals ** 2).sum())
    r_squared = 1.0 - ssr / sst if sst > 0 else float("nan")
    return RegressionTable(model_id=spec.id, dimension=dimension,
                           terms=terms, n_obs=len(fit.y),
                           n_clusters=fit.n_clusters, r_squared=r_squared)


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
