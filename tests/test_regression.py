import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from threadtone.dimensions import DIMENSIONS, NAMES
from threadtone.errors import EmptySample, InsufficientSample, SingularDesign
from threadtone.features import compute_feature_table
from threadtone.regression import (
    MODEL_SPECS,
    cluster_robust_vcov,
    critical_value,
    filter_rows,
    fit_model,
    get_model_spec,
    ols_fit,
    p_value,
    run_all,
    run_model,
    stars_for,
)

from conftest import parse_strict
from feature_oracle import FeatureRow, table_from_rows, term_value
from regression_oracle import _solve_pivoted

DIM = DIMENSIONS[0].name


# --- brute-force sandwich oracle -----------------------------------------------------

def sandwich_oracle(x, residuals, cluster_ids):
    """Literal evaluation: (X'X)^-1 (sum_d X_d' e_d e_d' X_d) (X'X)^-1."""
    x = np.asarray(x, float)
    residuals = np.asarray(residuals, float)
    bread = np.linalg.inv(x.T @ x)
    k = x.shape[1]
    meat = np.zeros((k, k))
    for cluster in sorted(set(cluster_ids)):
        idx = [i for i, c in enumerate(cluster_ids) if c == cluster]
        xd = x[idx]
        ed = residuals[idx][:, None]
        meat += xd.T @ ed @ ed.T @ xd
    return bread @ meat @ bread


def random_instance(rng, max_n=50, max_k=4, cluster_range=(2, 10)):
    k = int(rng.integers(1, max_k + 1))
    n = int(rng.integers(k + 2, max_n + 1))
    x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]) \
        if k > 1 else np.ones((n, 1))
    g = int(rng.integers(*cluster_range))
    clusters = [f"c{rng.integers(0, g)}" for _ in range(n)]
    residuals = rng.normal(size=n)
    return x, residuals, clusters


# --- ols ------------------------------------------------------------------------------

def test_ols_exact_line():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([1.0, 3.0, 5.0])
    beta, residuals = ols_fit(x, y)
    assert beta == pytest.approx([1.0, 2.0], abs=1e-12)
    assert residuals == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_ols_closed_form_simple_regression():
    # Sxy/Sxx by hand: x mean 1, y mean 4/3; Sxy = 3, Sxx = 2
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0, 3.0])
    beta, _ = ols_fit(x, y)
    assert beta == pytest.approx([-1.0 / 6.0, 1.5], abs=1e-9)


def test_ols_duplicate_column_singular():
    x = np.ones((5, 2))
    with pytest.raises(SingularDesign):
        ols_fit(x, np.arange(5.0))


def test_a_column_whose_squared_norm_underflows_is_singular():
    # the entries are normal floats, but their squares are subnormal: X'X
    # then loses the column, and solving it would fail or give NaN
    x = np.column_stack([np.ones(4), [1e-159, 1e-159, 3e-165, 2e-160]])
    with pytest.raises(SingularDesign):
        ols_fit(x, np.arange(4.0))
    with pytest.raises(SingularDesign):
        cluster_robust_vcov(x, np.ones(4), ["a", "a", "b", "b"])


def test_ols_insufficient_sample():
    with pytest.raises(InsufficientSample):
        ols_fit(np.ones((2, 2)), np.array([1.0, 2.0]))


def test_ols_orthogonality_of_residuals():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(6, 60))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = rng.normal(size=n)
        beta, residuals = ols_fit(x, y)
        moment = x.T @ residuals
        scale = max(np.abs(x.T @ y).max(), 1.0)
        assert np.abs(moment).max() / scale < 1e-8


# --- numpy.linalg against the former pivoted solver ----------------------------------

# Over 20,000 random designs drawn as below (8,768 of them singular under
# both rules, none under only one), the largest differences, measured as
# below, were 5.0e-14 (coefficients), 2.2e-14 (residuals) and 7.6e-13
# (covariance).
SOLVER_RTOL = 1e-10


def oracle_fit(x, y, scores, clusters):
    """Coefficients and residuals from the pivoted solver, and the CR0
    covariance with its bread for the residual vector ``scores``; None when
    it finds the design singular."""
    gram = x.T @ x
    try:
        beta = _solve_pivoted(gram, x.T @ y)
        bread = _solve_pivoted(gram, np.eye(x.shape[1]))
    except SingularDesign:
        return None
    meat = np.zeros((x.shape[1],) * 2)
    for cluster in set(clusters):
        idx = [i for i, c in enumerate(clusters) if c == cluster]
        score = x[idx].T @ scores[idx]
        meat += np.outer(score, score)
    return beta, y - x @ beta, bread @ meat @ bread


@settings(max_examples=400, deadline=None)
@given(k=st.integers(1, 4), n_extra=st.integers(1, 196),
       n_clusters=st.integers(1, 12), exponent=st.floats(-3.0, 4.0),
       inject=st.sampled_from(("none", "none", "duplicate", "zero", "constant")),
       column=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_solver_matches_the_pivoted_oracle(k, n_extra, n_clusters, exponent,
                                           inject, column, seed):
    # an intercept plus k-1 columns at a common scale of 10**exponent, one
    # of them optionally replaced by a duplicate, all-zero or constant column
    rng = np.random.default_rng(seed)
    n = k + n_extra
    x = np.ones((n, k))
    x[:, 1:] = ((rng.normal(size=(n, k - 1)) + rng.uniform(-3, 3, size=k - 1))
                * 10.0 ** exponent)
    column %= k
    if inject == "duplicate" and k > 1:
        x[:, column] = x[:, (column + 1) % k]
    elif inject == "zero":
        x[:, column] = 0.0
    elif inject == "constant":
        x[:, column] = rng.uniform(-2, 2) * 10.0 ** exponent
    y = x @ rng.normal(size=k) + rng.normal(size=n)
    clusters = [f"c{c}" for c in rng.integers(0, n_clusters, size=n)]
    # least-squares residuals sum to zero over a single cluster, leaving a
    # meat of rounding noise; random residuals keep it well defined
    scores = rng.normal(size=n)

    want = oracle_fit(x, y, scores, clusters)
    if want is None:
        with pytest.raises(SingularDesign):
            ols_fit(x, y)
        with pytest.raises(SingularDesign):
            cluster_robust_vcov(x, scores, clusters)
        return
    beta, residuals = ols_fit(x, y)
    vcov = cluster_robust_vcov(x, scores, clusters)
    # compare in units of the columns' norms, where every entry is O(1)
    norms = np.sqrt((x * x).sum(axis=0))
    scaled = np.outer(norms, norms)
    assert (np.abs(norms * (beta - want[0])).max()
            <= SOLVER_RTOL * np.abs(norms * want[0]).max())
    assert np.abs(residuals - want[1]).max() <= SOLVER_RTOL * np.abs(y).max()
    assert (np.abs(scaled * (vcov - want[2])).max()
            <= SOLVER_RTOL * np.abs(scaled * want[2]).max())


def test_a_design_spanning_1e6_in_column_scale_fits():
    # hours since the parent over more than a century next to a unit-scale
    # score: the pivot rule on the unscaled normal equations called this
    # singular, the rule on the unit-diagonal matrix does not
    rng = np.random.default_rng(0)
    n = 120
    x = np.column_stack([np.ones(n), rng.normal(size=n),
                         rng.exponential(size=n) * 1e6])
    y = x @ [0.5, -1.0, 3e-6] + rng.normal(scale=0.1, size=n)
    with pytest.raises(SingularDesign):
        _solve_pivoted(x.T @ x, x.T @ y)
    beta, residuals = ols_fit(x, y)
    assert beta == pytest.approx(np.linalg.lstsq(x, y, rcond=None)[0],
                                 rel=1e-6)
    clusters = [f"d{i % 10}" for i in range(n)]
    vcov = cluster_robust_vcov(x, residuals, clusters)
    assert np.all(np.diag(vcov) > 0)


def exact_least_squares(x: np.ndarray, y: np.ndarray) -> list[Fraction]:
    """The least-squares coefficients of the float inputs taken as exact
    rationals: the normal equations solved by Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in x.tolist()]
    ys = [Fraction(v) for v in y.tolist()]
    k = len(rows[0])
    a = [[sum(r[i] * r[j] for r in rows) for j in range(k)]
         + [sum(r[i] * t for r, t in zip(rows, ys))] for i in range(k)]
    for c in range(k):
        pivot = next(r for r in range(c, k) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(k):
            if r != c and a[r][c] != 0:
                factor = a[r][c] / a[c][c]
                a[r] = [u - factor * v for u, v in zip(a[r], a[c])]
    return [a[i][k] / a[i][i] for i in range(k)]


@pytest.mark.parametrize("seed", range(5))
def test_a_badly_scaled_design_keeps_its_digits(seed):
    # the design above, against the exact solution: over seeds 0-4
    # np.linalg.lstsq was within only 2.6e-11 to 8.6e-10 relative, and
    # ols_fit's unscaled normal equations within 1.2e-14
    rng = np.random.default_rng(seed)
    n = 120
    x = np.column_stack([np.ones(n), rng.normal(size=n),
                         rng.exponential(size=n) * 1e6])
    y = x @ [0.5, -1.0, 3e-6] + rng.normal(scale=0.1, size=n)
    want = np.array([float(v) for v in exact_least_squares(x, y)])
    beta, _ = ols_fit(x, y)
    assert np.all(np.abs(beta - want) <= 1e-13 * np.abs(want))


# --- sandwich ---------------------------------------------------------------------------

def test_vcov_zero_residuals():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    vcov = cluster_robust_vcov(x, np.zeros(6), ["a", "a", "b", "b", "c", "c"])
    assert np.abs(vcov).max() == 0.0


def test_vcov_matches_bruteforce():
    rng = np.random.default_rng(123)
    for _ in range(100):
        x, residuals, clusters = random_instance(rng)
        got = cluster_robust_vcov(x, residuals, clusters)
        want = sandwich_oracle(x, residuals, clusters)
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(got - got.T).max() < 1e-12
        eigenvalues = np.linalg.eigvalsh(got)
        assert eigenvalues.min() > -1e-10


def test_vcov_small_integer_case():
    x = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0],
                  [1.0, 3.0], [1.0, 4.0], [1.0, 5.0]])
    residuals = np.array([1.0, -1.0, 2.0, -2.0, 1.0, 0.0])
    clusters = ["a", "a", "a", "b", "b", "b"]
    got = cluster_robust_vcov(x, residuals, clusters)
    want = sandwich_oracle(x, residuals, clusters)
    assert np.abs(got - want).max() < 1e-12


def test_vcov_singleton_clusters_equal_hc0():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, residuals, _ = random_instance(rng)
        n = x.shape[0]
        singleton = [f"i{i}" for i in range(n)]
        got = cluster_robust_vcov(x, residuals, singleton)
        bread = np.linalg.inv(x.T @ x)
        hc0 = bread @ (x.T @ np.diag(residuals ** 2) @ x) @ bread
        assert np.abs(got - hc0).max() < 1e-12


def test_vcov_cr1_factor():
    rng = np.random.default_rng(9)
    x, residuals, clusters = random_instance(rng)
    n, k = x.shape
    g = len(set(clusters))
    cr0 = cluster_robust_vcov(x, residuals, clusters)
    cr1 = cluster_robust_vcov(x, residuals, clusters, small_sample=True)
    factor = g / (g - 1) * (n - 1) / (n - k)
    assert np.allclose(cr1, cr0 * factor, rtol=1e-12)


def test_vcov_cluster_relabel_invariance():
    rng = np.random.default_rng(11)
    x, residuals, clusters = random_instance(rng)
    relabeled = [f"renamed-{c}" for c in clusters]
    a = cluster_robust_vcov(x, residuals, clusters)
    b = cluster_robust_vcov(x, residuals, relabeled)
    assert np.abs(a - b).max() == 0.0


# --- p-values and stars -------------------------------------------------------------------

def test_p_value_null_point():
    assert p_value(0.0, 1.3, 10) == 1.0


def test_p_value_normal_bench():
    assert p_value(1.96, 1.0, 10, dist="normal") == pytest.approx(0.05, abs=1e-3)


def test_p_value_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        estimate = float(rng.normal())
        se = float(abs(rng.normal()) + 0.1)
        g = int(rng.integers(2, 40))
        assert p_value(estimate, se, g) == pytest.approx(
            p_value(-estimate, se, g), abs=1e-15)


def test_p_value_t_reference():
    p = p_value(2.0, 1.0, 10)
    assert p == pytest.approx(2 * scipy_stats.t.sf(2.0, 9), abs=1e-15)


def test_p_value_degenerate_se(caplog):
    assert p_value(0.5, 0.0, 10) == 0.0
    caplog.clear()
    # a NaN estimate is undefined, not degenerate: no p = 0, no warning
    for dist in ("t", "normal"):
        assert math.isnan(p_value(float("nan"), 0.0, 10, dist=dist))
    assert caplog.records == []


def test_critical_value_matches_the_p_value_reference():
    for g in (2, 3, 10, 61):
        crit = critical_value(g)
        assert crit == pytest.approx(scipy_stats.t.ppf(0.975, g - 1), abs=1e-12)
        assert p_value(crit, 1.0, g) == pytest.approx(0.05, abs=1e-12)
    normal = critical_value(1, dist="normal")
    assert normal == pytest.approx(scipy_stats.norm.ppf(0.975), abs=1e-15)
    assert p_value(normal, 1.0, 1, dist="normal") == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(InsufficientSample):
        critical_value(1)
    with pytest.raises(ValueError):
        critical_value(10, dist="cauchy")


@pytest.mark.parametrize("t", [5.0, 8.0, 9.0, 12.0, 30.0])
def test_p_value_normal_tail_keeps_its_digits(t):
    # erfc's argument t/sqrt(2) is rounded, and that alone moves erfc by up
    # to ~t^2/2 ulps: 1e-13 at t = 30, where the oracle itself is 5.7e-14
    # from the exact value
    tolerance = max(1e-14, t * t * 1.1e-16)
    expected = 2.0 * scipy_stats.norm.sf(t)
    assert p_value(t, 1.0, 10, dist="normal") == pytest.approx(
        expected, rel=tolerance, abs=0.0)
    assert p_value(-t, 1.0, 10, dist="normal") == p_value(t, 1.0, 10,
                                                          dist="normal")


@settings(max_examples=300, deadline=None)
@given(df=st.integers(1, 10_000), log_t=st.floats(-8.0, 4.0))
def test_t_tail_matches_the_scipy_oracle(df, log_t):
    t = math.exp(log_t)
    expected = 2.0 * scipy_special.stdtr(df, -t)
    assume(expected >= 1e-300)
    assert p_value(t, 1.0, df + 1) == pytest.approx(expected, rel=1e-12,
                                                     abs=0.0)


@settings(max_examples=100, deadline=None)
@given(df=st.integers(1, 10_000))
def test_t_critical_value_matches_the_scipy_oracle(df):
    crit = critical_value(df + 1)
    assert crit == pytest.approx(scipy_special.stdtrit(df, 0.975), rel=1e-13,
                                 abs=0.0)
    assert p_value(crit, 1.0, df + 1) == pytest.approx(0.05, rel=1e-14,
                                                       abs=0.0)


@pytest.mark.parametrize("g", [2, 3, 30, 31, 32, 61, 10_001])
def test_p_value_t_edge_cases(g):
    assert p_value(0.0, 1.0, g) == 1.0
    assert p_value(1e-300, 1.0, g) == 1.0
    assert p_value(math.inf, 1.0, g) == 0.0
    assert p_value(-math.inf, 1.0, g) == 0.0
    assert p_value(1e300, 1e-300, g) == 0.0
    assert math.isnan(p_value(math.nan, 1.0, g))
    assert math.isnan(p_value(1.0, math.nan, g))


@pytest.mark.parametrize("g", [2, 3, 6, 30, 31, 32, 60, 1_001, 10_001])
def test_p_value_t_is_symmetric_and_falls_with_abs_t(g):
    # the grid crosses every switch between the tail's three methods
    ts = np.exp(np.linspace(-8.0, 6.0, 400)).tolist()
    tails = [p_value(t, 1.0, g) for t in ts]
    assert tails == [p_value(-t, 1.0, g) for t in ts]
    assert all(0.0 <= p <= 1.0 for p in tails)
    assert all(a > b or b == 0.0 for a, b in zip(tails, tails[1:]))


def test_stars_scheme():
    assert stars_for(0.00011) == "***"
    assert stars_for(0.0152) == "*"
    assert stars_for(0.5) == ""
    assert stars_for(0.009) == "**"
    assert stars_for(0.07) == "†"
    assert stars_for(0.0005, scheme="four-star") == "****"


# --- model runs ----------------------------------------------------------------------------

def make_row(post_id, discussion_id, depth, metric, dt_prev=1.0, dt_parent=1.0,
             parent=None, sib=None, br=None):
    return FeatureRow(
        post_id=post_id, discussion_id=discussion_id, depth=depth,
        dt_prev=dt_prev, dt_parent=dt_parent,
        metric={d.name: metric for d in DIMENSIONS},
        parent_metric={d.name: parent for d in DIMENSIONS},
        sib_older_mean={d.name: sib for d in DIMENSIONS},
        br_neg={d.name: br for d in DIMENSIONS},
    )


def synthetic_rows(rng, n=120, n_discussions=8):
    rows = []
    for i in range(n):
        did = f"d{rng.integers(0, n_discussions)}"
        depth = int(rng.integers(1, 4))
        rows.append(make_row(
            f"p{i:04d}", did, depth, metric=float(rng.normal()),
            dt_prev=float(rng.exponential(2.0)),
            dt_parent=float(rng.exponential(4.0)),
            parent=float(rng.normal()) if depth >= 2 else None,
            sib=float(rng.normal()) if rng.random() < 0.6 else None,
            br=int(rng.random() < 0.5) if depth >= 2 else None,
        ))
    return rows


def test_run_model_empty_sample():
    rows = [make_row("a", "d1", 1, 0.5, sib=None)]
    with pytest.raises(EmptySample):
        run_model(MODEL_SPECS["M3"], table_from_rows(rows), DIM)


def test_run_model_degenerate_interaction_singular():
    rng = np.random.default_rng(3)
    rows = []
    for i in range(30):
        rows.append(make_row(f"p{i}", f"d{i % 4}", 2, float(rng.normal()),
                             parent=float(rng.normal()), sib=0.0, br=0))
    with pytest.raises(SingularDesign):
        run_model(MODEL_SPECS["M5"], table_from_rows(rows), DIM)


def test_m6_sibling_filter_and_relax():
    rng = np.random.default_rng(4)
    table = table_from_rows(synthetic_rows(rng, 200))
    strict_spec = get_model_spec("M6")
    relaxed_spec = get_model_spec("M6", m6_relax_sibling_filter=True)
    strict_sample = filter_rows(strict_spec, table, DIM)
    relaxed_sample = filter_rows(relaxed_spec, table, DIM)
    assert strict_sample.dtype == bool and relaxed_sample.dtype == bool
    assert strict_sample.sum() < relaxed_sample.sum()
    assert not np.isnan(table.column("sib_older_mean", DIM)[strict_sample]).any()
    assert not np.isnan(table.column("parent_metric", DIM)[relaxed_sample]).any()


def test_filter_counts_match_bruteforce():
    rng = np.random.default_rng(5)
    rows = synthetic_rows(rng, 300)
    expectations = {
        "M1": lambda r: r.dt_prev is not None,
        "M2": lambda r: r.dt_parent is not None,
        "M3": lambda r: r.sib_older_mean[DIM] is not None,
        "M4": lambda r: r.parent_metric[DIM] is not None,
        "M5": lambda r: r.parent_metric[DIM] is not None
        and r.sib_older_mean[DIM] is not None,
        "M6": lambda r: r.parent_metric[DIM] is not None
        and r.sib_older_mean[DIM] is not None and r.br_neg[DIM] is not None,
    }
    for model_id, predicate in expectations.items():
        table = run_model(MODEL_SPECS[model_id], table_from_rows(rows), DIM)
        assert table.n_obs == sum(1 for r in rows if predicate(r))


def test_run_all_grid_and_consistency():
    rng = np.random.default_rng(6)
    features = table_from_rows(synthetic_rows(rng, 250))
    tables, errors = run_all(features)
    assert errors == {}
    assert len(tables) == 16
    keys = [(t.model_id, t.dimension) for t in tables]
    assert keys == sorted(keys)
    assert keys.count(("M6", "disagree_vs_agree")) == 1
    # identical to individual calls, and identical on rerun
    for table in tables:
        spec = get_model_spec(table.model_id)
        assert run_model(spec, features, table.dimension) == table
    tables2, _ = run_all(features)
    assert tables2 == tables


def test_run_all_collects_errors():
    rows = [make_row("a", "d1", 1, 0.5, dt_prev=1.0, dt_parent=2.0),
            make_row("b", "d1", 1, 0.2, dt_prev=3.0, dt_parent=1.0),
            make_row("c", "d2", 1, 0.1, dt_prev=2.0, dt_parent=5.0)]
    tables, errors = run_all(table_from_rows(rows))
    fitted = {t.model_id for t in tables}
    assert "M1" in fitted and "M2" in fitted
    assert any(key.startswith("M3") for key in errors)
    assert any(key.startswith("M6") for key in errors)


def test_row_order_invariance():
    rng = np.random.default_rng(8)
    rows = synthetic_rows(rng, 150)
    tables, _ = run_all(table_from_rows(rows))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    tables_shuffled, _ = run_all(table_from_rows(shuffled))
    for a, b in zip(tables, tables_shuffled):
        assert a.model_id == b.model_id and a.dimension == b.dimension
        assert a.n_obs == b.n_obs
        for ta, tb in zip(a.terms, b.terms):
            assert ta.estimate == pytest.approx(tb.estimate, abs=1e-10)
            assert ta.std_error == pytest.approx(tb.std_error, abs=1e-10)
            assert ta.p_value == pytest.approx(tb.p_value, abs=1e-10)


def test_noiseless_recovery_all_models():
    rng = np.random.default_rng(9)
    rows = []
    coefs = {"M1": (0.5, 0.01), "M2": (-1.0, 0.002), "M3": (0.2, 0.3),
             "M4": (-0.4, 0.25), "M5": (0.1, 0.3, 0.2, 0.05),
             "M6": (-0.9, 0.33, -0.4, -0.2)}
    for i in range(200):
        base = make_row(f"p{i:04d}", f"d{i % 10}", 2, 0.0,
                        dt_prev=float(rng.exponential(3)),
                        dt_parent=float(rng.exponential(6)),
                        parent=float(rng.normal()),
                        sib=float(rng.normal()),
                        br=int(rng.random() < 0.4))
        rows.append(base)
    for model_id, beta in coefs.items():
        spec = MODEL_SPECS[model_id]
        for row in rows:
            value = beta[0]
            for j, term in enumerate(spec.terms, start=1):
                value += beta[j] * term_value(row, term, DIM)
            row.metric[DIM] = value
        table = run_model(spec, table_from_rows(rows), DIM)
        for j, term in enumerate(table.terms):
            assert term.estimate == pytest.approx(beta[j], abs=1e-8)
            assert term.std_error <= 1e-8


def test_ids_that_differ_by_trailing_nuls_are_separate_clusters():
    # a numpy string array drops trailing NULs: "a" and "a\0" used to be one
    # cluster in the sandwich and in the table's discussion ids
    x = np.ones((4, 1))
    residuals = np.array([1.0, 2.0, 3.0, 4.0])
    apart = cluster_robust_vcov(x, residuals, ["a", "a\0", "a", "a\0"])
    assert np.array_equal(apart, cluster_robust_vcov(x, residuals,
                                                     ["a", "b", "a", "b"]))
    assert np.array_equal(apart, cluster_robust_vcov(
        x, residuals, np.array([0, 1, 0, 1], np.int64)))
    assert not np.array_equal(apart, cluster_robust_vcov(x, residuals,
                                                         ["a"] * 4))


def test_a_discussion_renamed_by_a_trailing_nul_stays_a_cluster():
    # the bundled corpus with its second discussion renamed to the first's
    # id + NUL: the fits used to count 59 clusters of its 60 discussions
    path = Path(__file__).resolve().parent.parent / "data" / "synthetic_corpus.jsonl"
    records = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    first, second = sorted({r["discussion_id"] for r in records})[:2]
    for record in records:
        if record["discussion_id"] == second:
            record["discussion_id"] = first + "\0"
    posts, _ = parse_strict(json.dumps(r) for r in records)
    assert len(posts.discussion_ids) == 60
    rng = np.random.default_rng(0)
    means = np.where((posts.parent >= 0)[:, None],
                     rng.normal(size=(len(posts.posts), len(NAMES))), np.nan)
    table = compute_feature_table(posts, means)
    assert first + "\0" in table.discussion_id
    assert len(set(table.cluster.tolist())) == 60
    for model_id in ("M1", "M2", "M4"):
        fit = fit_model(get_model_spec(model_id), table, NAMES[0])
        assert fit.n_clusters == 60
        ids = [table.discussion_id[i]
               for i in np.flatnonzero(filter_rows(fit.spec, table, NAMES[0]))]
        assert np.array_equal(cluster_robust_vcov(fit.x, fit.residuals, ids),
                              fit.vcov)
    tables, errors = run_all(table, [("M2", NAMES[0])])
    assert not errors and tables[0].n_clusters == 60
