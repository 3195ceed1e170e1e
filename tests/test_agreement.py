import csv
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadtone.agreement import (
    AGREEMENT_CSV_HEADER,
    agreement_report,
    correlation_report,
    dispersion_stats,
    fleiss_kappa,
    krippendorff_alpha_interval,
    midranks,
    spearman_rho,
    write_agreement_csv,
)
from threadtone.annotate import AnnotationCache, cached_pair_scores
from threadtone.dimensions import DIMENSIONS, AnnotationScale
from threadtone.errors import DegenerateData
from threadtone.report import PipelineOptions, run_pipeline

SCALE = AnnotationScale()


def matrix(values) -> np.ndarray:
    return np.asarray(values)


def random_matrix(rng, n_raters=4, n_items=20, lo=-5, hi=5) -> np.ndarray:
    return matrix(rng.integers(lo, hi + 1, size=(n_raters, n_items)))


# --- brute-force oracles, straight from the definitions ---------------------------

def alpha_oracle(values: np.ndarray) -> float:
    """Enumerate all pairable value pairs: within units for observed
    disagreement, across the pooled values for expected disagreement."""
    n_raters, n_items = values.shape
    n = n_raters * n_items
    d_obs = 0.0
    for item in range(n_items):
        unit = values[:, item]
        pair_sum = sum((float(a) - float(b)) ** 2
                       for a, b in itertools.permutations(unit, 2))
        d_obs += pair_sum / (n_raters - 1)
    d_obs /= n
    pooled = [float(v) for v in values.ravel()]
    d_exp = sum((a - b) ** 2 for a, b in itertools.permutations(pooled, 2))
    d_exp /= n * (n - 1)
    return 1.0 - d_obs / d_exp


def kappa_oracle(values: np.ndarray, scale: AnnotationScale) -> float:
    n_raters, n_items = values.shape
    cats = list(range(scale.min, scale.max + 1))
    counts = [[int((values[:, i] == c).sum()) for c in cats]
              for i in range(n_items)]
    p_i = [(sum(c * c for c in row) - n_raters) / (n_raters * (n_raters - 1))
           for row in counts]
    p_bar = sum(p_i) / n_items
    totals = [sum(row[j] for row in counts) for j in range(len(cats))]
    p_cat = [t / (n_items * n_raters) for t in totals]
    p_exp = sum(p * p for p in p_cat)
    return (p_bar - p_exp) / (1 - p_exp)


def dispersion_oracle(values: np.ndarray):
    n_raters, n_items = values.shape
    mapd, exact, within1, rng_, sd = [], [], [], [], []
    for i in range(n_items):
        unit = [float(v) for v in values[:, i]]
        pairs = list(itertools.combinations(unit, 2))
        diffs = [abs(a - b) for a, b in pairs]
        mapd.append(sum(diffs) / len(diffs))
        exact.append(sum(d == 0 for d in diffs) / len(diffs))
        within1.append(sum(d <= 1 for d in diffs) / len(diffs))
        rng_.append(max(unit) - min(unit))
        mean = sum(unit) / len(unit)
        sd.append((sum((v - mean) ** 2 for v in unit) / (len(unit) - 1)) ** 0.5)
    mean_of = lambda xs: sum(xs) / len(xs)
    return (mean_of(mapd), mean_of(exact), mean_of(within1),
            mean_of(rng_), mean_of(sd))


def midranks_oracle(values) -> np.ndarray:
    """The tie-block loop that ``agreement.midranks`` replaced."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman_oracle(x, y) -> float:
    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(list(x)), ranks(list(y))
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


# --- krippendorff -----------------------------------------------------------------

def test_alpha_perfect_agreement():
    m = matrix([[1, 3, -2, 0], [1, 3, -2, 0], [1, 3, -2, 0]])
    result = krippendorff_alpha_interval(m)
    assert result == pytest.approx(1.0, abs=1e-12)


def test_alpha_degenerate_constant():
    result = krippendorff_alpha_interval(matrix([[2, 2], [2, 2]]))
    assert result == 1.0


def test_alpha_constant_shift_penalized():
    base = np.array([[1, 2, 3, 4, 0, -3]])
    m = matrix(np.vstack([base, base + 2]))
    assert krippendorff_alpha_interval(m) < 1.0


def test_alpha_matches_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = random_matrix(rng, 4, int(rng.integers(2, 25)))
        if (m == m[0, 0]).all():  # degenerate: reported as 1.0
            assert krippendorff_alpha_interval(m) == 1.0
            continue
        assert krippendorff_alpha_interval(m) == \
            pytest.approx(alpha_oracle(m), abs=1e-12)


def test_alpha_shift_invariance():
    rng = np.random.default_rng(1)
    m = random_matrix(rng, 4, 30, lo=-3, hi=3)
    shifted = matrix(m + 2)
    assert krippendorff_alpha_interval(shifted) == \
        pytest.approx(krippendorff_alpha_interval(m), abs=1e-12)


# --- fleiss -----------------------------------------------------------------------

def test_kappa_unanimity():
    m = matrix([[1, -2, 4], [1, -2, 4], [1, -2, 4], [1, -2, 4]])
    result = fleiss_kappa(m, SCALE)
    assert result == pytest.approx(1.0, abs=1e-12)


def test_kappa_degenerate_single_category():
    result = fleiss_kappa(matrix([[0, 0], [0, 0]]), SCALE)
    assert result == 1.0


def test_kappa_null_under_uniform_random():
    rng = np.random.default_rng(99)
    m = random_matrix(rng, 4, 50)
    assert abs(fleiss_kappa(m, SCALE)) < 0.1


def test_kappa_hand_computed_table():
    # 3 items x 4 raters; categories actually used: {-1, 0, 2}
    m = matrix([[-1, 0, 2],
                [-1, 0, 2],
                [0, 0, 2],
                [-1, 2, 2]])
    value = fleiss_kappa(m, SCALE)
    assert value == pytest.approx(kappa_oracle(m, SCALE), abs=1e-12)
    # direct closed form: P_i per item, then (P - Pe)/(1 - Pe)
    # item counts: (-1:3, 0:1), (0:3, 2:1), (2:4); category totals -1:3, 0:4, 2:5
    p_items = [(9 + 1 - 4) / 12, (9 + 1 - 4) / 12, (16 - 4) / 12]
    p_bar = sum(p_items) / 3
    p_cats = [3 / 12, 4 / 12, 5 / 12]
    p_exp = sum(p * p for p in p_cats)
    assert value == pytest.approx((p_bar - p_exp) / (1 - p_exp), abs=1e-12)


def test_kappa_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = random_matrix(rng, 4, int(rng.integers(2, 30)))
        result = fleiss_kappa(m, SCALE)
        if (m == m[0, 0]).all():  # degenerate: reported as 1.0
            assert result == 1.0
            continue
        assert result == pytest.approx(
            kappa_oracle(m, SCALE), abs=1e-12)


# --- dispersion --------------------------------------------------------------------

def test_dispersion_hand_arithmetic():
    stats = dispersion_stats(matrix([[1], [2], [3], [4]]))
    assert stats.mapd_mean == pytest.approx(1.6667, abs=1e-4)
    assert stats.exact_agreement == pytest.approx(0.0, abs=1e-12)
    assert stats.pct_within_1 == pytest.approx(0.5, abs=1e-12)
    assert stats.mean_range == pytest.approx(3.0, abs=1e-12)
    assert stats.mean_sd == pytest.approx(1.2910, abs=1e-4)


def test_dispersion_degenerate():
    stats = dispersion_stats(matrix([[2, -1], [2, -1], [2, -1], [2, -1]]))
    assert (stats.mapd_mean, stats.exact_agreement, stats.pct_within_1,
            stats.mean_range, stats.mean_sd) == (0.0, 1.0, 1.0, 0.0, 0.0)


def test_dispersion_matches_pair_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = random_matrix(rng, 4, 100)
        stats = dispersion_stats(m)
        oracle = dispersion_oracle(m)
        for got, want in zip(
                (stats.mapd_mean, stats.exact_agreement, stats.pct_within_1,
                 stats.mean_range, stats.mean_sd), oracle):
            assert got == pytest.approx(want, abs=1e-12)


def test_dispersion_invariances():
    rng = np.random.default_rng(3)
    m = random_matrix(rng, 4, 40, lo=-3, hi=3)
    base = dispersion_stats(m)
    assert base.exact_agreement <= base.pct_within_1
    # rater and item permutation invariance
    perm_raters = matrix(m[::-1, :])
    perm_items = matrix(m[:, rng.permutation(m.shape[1])])
    for other in (perm_raters, perm_items):
        stats = dispersion_stats(other)
        assert stats == base
    # constant shift invariance
    shifted = dispersion_stats(matrix(m + 2))
    assert shifted == base
    # kappa invariant under relabeling by a constant shift too
    assert fleiss_kappa(matrix(m + 2), SCALE) == \
        pytest.approx(fleiss_kappa(m, SCALE), abs=1e-12)


def test_unanimity_variant_is_stricter():
    rng = np.random.default_rng(8)
    m = random_matrix(rng, 4, 60, lo=-2, hi=2)
    pairwise = dispersion_stats(m)
    unanimous = dispersion_stats(m, unanimity=True)
    assert unanimous.exact_agreement <= pairwise.exact_agreement + 1e-12
    assert unanimous.pct_within_1 <= pairwise.pct_within_1 + 1e-12
    # identical replications agree under both conventions
    same = matrix([[1, 2], [1, 2], [1, 2], [1, 2]])
    assert dispersion_stats(same, unanimity=True).exact_agreement == 1.0


# --- spearman ----------------------------------------------------------------------

def test_spearman_monotone():
    x = [1.0, 2.0, 5.0, 9.0]
    assert spearman_rho(x, [2.0, 3.0, 8.0, 20.0]) == pytest.approx(1.0)
    assert spearman_rho(x, [0.0, -1.0, -2.0, -5.0]) == pytest.approx(-1.0)


def test_spearman_ties_against_oracle():
    x = [1.0, 1.0, 2.0, 3.0]
    y = [2.0, 1.0, 1.0, 3.0]
    assert spearman_rho(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(50):
        xs = rng.integers(-3, 4, size=12).astype(float)
        ys = rng.integers(-3, 4, size=12).astype(float)
        if np.all(xs == xs[0]) or np.all(ys == ys[0]):
            continue
        assert spearman_rho(xs, ys) == \
            pytest.approx(spearman_oracle(xs, ys), abs=1e-12)


def test_spearman_symmetries():
    rng = np.random.default_rng(5)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x), abs=1e-12)
    assert spearman_rho(x, -y) == pytest.approx(-spearman_rho(x, y), abs=1e-12)


def test_spearman_degenerate():
    with pytest.raises(DegenerateData):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_midranks():
    assert midranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]


# few distinct values, so most draws are mostly ties; a float pool mixes in
# signed zeros, which compare equal
_TIED_VALUES = st.one_of(st.integers(-3, 3).map(float),
                         st.sampled_from([-0.0, 0.0, 0.5, 1e300, -2.25]))


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 200).flatmap(
    lambda n: st.tuples(st.lists(_TIED_VALUES, min_size=n, max_size=n),
                        st.lists(_TIED_VALUES, min_size=n, max_size=n))))
def test_midranks_and_spearman_match_the_loop(xy):
    x, y = (np.array(v) for v in xy)
    assert np.array_equal(midranks(x), midranks_oracle(x))
    assert np.array_equal(midranks(y), midranks_oracle(y))
    if np.all(x == x[0]) or np.all(y == y[0]):
        return
    rx = midranks_oracle(x) - midranks_oracle(x).mean()
    ry = midranks_oracle(y) - midranks_oracle(y).mean()
    expected = float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))
    assert spearman_rho(x, y) == expected  # exact: correlations.csv bytes



@settings(max_examples=25, deadline=None)
@given(st.integers(3, 150_000), st.integers(2, 60), st.integers(0, 2**32 - 1))
def test_spearman_matches_the_dot_products_at_any_length(n, n_values, seed):
    # spearman_rho sums elementwise products where it once took BLAS dot
    # products, whose summation order changes with the length (blocked and
    # threaded past ~16k); both must give the same bits while the partial
    # sums of the centred midranks are exact
    rng = np.random.default_rng(seed)
    x, y = (rng.integers(0, n_values, n).astype(float) for _ in range(2))
    if np.all(x == x[0]) or np.all(y == y[0]):
        return
    rx, ry = (ranks - ranks.mean() for ranks in (midranks(x), midranks(y)))
    expected = float((rx @ ry) / np.sqrt((rx @ rx) * (ry @ ry)))
    assert spearman_rho(x, y) == expected

# --- correlation report ---------------------------------------------------------------

def columns_of(means_by_post):
    """post id -> dimension -> mean as post ids and a posts x dimensions
    array, NaN where a post lacks a dimension."""
    post_ids = tuple(means_by_post)
    return post_ids, np.array([[means_by_post[p].get(d.name, np.nan)
                                for d in DIMENSIONS] for p in post_ids])


def test_correlation_report_structure_and_consistency():
    rng = np.random.default_rng(6)
    means = {}
    for i in range(40):
        base = rng.normal()
        means[f"p{i:03d}"] = {
            "disagree_vs_agree": base + rng.normal(),
            "attacking_vs_respectful": base + rng.normal(),
            "emotional_vs_factual": rng.normal(),
        }
    m = correlation_report(*columns_of(means))
    assert np.allclose(m, m.T)
    assert np.allclose(np.diag(m), 1.0)
    # element-wise recomputation
    names = [d.name for d in DIMENSIONS]
    posts = sorted(means)
    for i in range(3):
        for j in range(i + 1, 3):
            rho = spearman_rho([means[p][names[i]] for p in posts],
                               [means[p][names[j]] for p in posts])
            assert m[i, j] == pytest.approx(rho, abs=1e-12)


def test_correlation_report_undefined_cells_are_nan(caplog):
    names = [d.name for d in DIMENSIONS]
    two_posts = {"p1": dict.fromkeys(names, 1.0), "p2": dict.fromkeys(names, 2.0)}
    m = correlation_report(*columns_of(two_posts))
    assert np.array_equal(np.isnan(m), ~np.eye(3, dtype=bool))
    # a constant series leaves only its own cells undefined
    means = {f"p{i}": {names[0]: float(i), names[1]: float(i % 3),
                       names[2]: 0.5} for i in range(10)}
    caplog.clear()
    m = correlation_report(*columns_of(means))
    assert np.isnan(m[0, 2]) and np.isnan(m[1, 2]) and not np.isnan(m[0, 1])
    assert len(caplog.records) == 1


def test_correlation_rendering_uses_two_decimals():
    from threadtone.agreement import render_correlations
    m = np.array([[1.0, 0.56, 0.48], [0.56, 1.0, 0.02], [0.48, 0.02, 1.0]])
    text = render_correlations(m)
    for token in ("1.00", "0.56", "0.48", "0.02"):
        assert token in text


# --- report + csv ----------------------------------------------------------------------

def test_agreement_report_and_csv(tmp_path):
    rng = np.random.default_rng(10)
    items = [f"pair{i:02d}" for i in range(30)]
    scores = rng.integers(-5, 6, size=(30, len(DIMENSIONS), 4))
    report = agreement_report(items, scores)
    assert [r.dimension for r in report] == [d.name for d in DIMENSIONS]
    for row in report:
        assert row.n_items == 30
        assert row.n_raters == 4
        assert row.exact_agreement <= row.pct_within_1
        assert row.krippendorff_alpha <= 1.0 and row.fleiss_kappa <= 1.0
        assert min(row.mapd_mean, row.mean_range, row.mean_sd) >= 0.0
    path = tmp_path / "agreement.csv"
    write_agreement_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == AGREEMENT_CSV_HEADER
    assert len(lines) == 4


def test_bundled_corpus_agreement_csv_cells_are_numbers(tmp_path):
    corpus = Path(__file__).resolve().parent.parent / "data" / "synthetic_corpus.jsonl"
    out = tmp_path / "bundle"
    assert run_pipeline(corpus, tmp_path / "cache.jsonl", out,
                        PipelineOptions(mock=True, seed=7)) == 0
    with open(out / "agreement.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == AGREEMENT_CSV_HEADER
    assert [row[0] for row in rows] == [d.name for d in DIMENSIONS]
    for row in rows:
        for cell in row[1:]:
            float(cell)  # e.g. not "np.float64(-0.0014...)"


@pytest.mark.parametrize("n_items, n_raters", ((30, 1), (1, 4), (0, 4)))
def test_agreement_report_too_few_items_or_replications_is_nan(
        caplog, n_items, n_raters):
    items = [f"pair{i:02d}" for i in range(n_items)]
    scores = np.ones((n_items, len(DIMENSIONS), n_raters), np.int64)
    report = agreement_report(items, scores)
    assert len(caplog.records) == 1
    for row in report:
        # an empty item set has no replications to count
        assert (row.n_items, row.n_raters) == (n_items, n_raters if n_items else 0)
        assert np.isnan([row.krippendorff_alpha, row.fleiss_kappa, row.mapd_mean,
                         row.exact_agreement, row.pct_within_1, row.mean_range,
                         row.mean_sd]).all()


def test_agreement_report_common_item_set(tmp_path):
    # one dimension is missing an item: every dimension drops it
    cache = AnnotationCache(tmp_path / "cache.jsonl")
    for item, reps in {"a": [1, 1, 2, 1], "b": [0, 0, 0, 1],
                       "c": [-2, 1, 0, 0]}.items():
        for d in DIMENSIONS:
            if (item, d) != ("c", DIMENSIONS[2]):
                for rep, score in enumerate(reps):
                    cache.put((item, "m", d.name, rep), score, 0)
    cache.close()
    items, scores = cached_pair_scores(cache)
    assert sorted(items) == ["a", "b"] and scores.shape == (2, 3, 4)
    report = agreement_report(items, scores)
    assert all(r.n_items == 2 for r in report)
