import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from threadtone import report, svgplot
from threadtone.dimensions import DIMENSIONS
from threadtone.errors import EmptySample, InsufficientSample
from threadtone.features import compute_feature_table
from threadtone.regression import (
    RegressionTable,
    TermEstimate,
    fit_model,
    get_model_spec,
)
from threadtone.report import (
    PipelineOptions,
    annotation_content_hash,
    emit_scatter,
    format_p,
    format_sig,
    render_table,
    run_pipeline,
    star_legend,
    write_table_files,
)
from threadtone.svgplot import band_half_width, nice_ticks, scatter_svg, ScatterData
from threadtone.synth import SynthConfig, generate_corpus
from threadtone.corpus import save_corpus

import annotation_oracle
from conftest import (
    mean_matrix,
    random_tree_posts,
    uniform_means,
)

DIM = DIMENSIONS[0].name


# --- number formatting -----------------------------------------------------------

def test_format_sig():
    assert format_sig(0.148) == "0.14800"
    assert format_sig(-0.92099) == "-0.92099"
    assert format_sig(0.00019) == "0.00019000"
    assert format_sig(1.96) == "1.9600"
    assert format_sig(0.0) == "0.00000"
    assert format_sig(123456.0) == "123460"


@pytest.mark.parametrize("x, text", [
    # rounding carries into the next power of ten: still 5 digits
    (9.999996, "10.000"), (0.000999996, "0.0010000"), (9999.96, "10000"),
    (99999.5, "100000"), (0.999996, "1.0000"),
    # just below the carry
    (9.999949, "9.9999"), (0.000999994, "0.00099999"), (99999.4, "99999"),
    # negatives mirror the positives
    (-9.999996, "-10.000"), (-0.000999996, "-0.0010000"),
    (-9999.96, "-10000"), (-99999.5, "-100000"), (-9.999949, "-9.9999"),
])
def test_format_sig_counts_digits_after_rounding(x, text):
    assert format_sig(x) == text


def test_format_p_convention():
    assert format_p(0.0152) == "0.015200"
    assert format_p(9e-6) == "< 0.00001"
    assert format_p(1e-12) == "< 0.00001"
    assert format_p(1.2e-5) == "0.000012000"


def make_table(p_values) -> RegressionTable:
    terms = tuple(
        TermEstimate(term=name, estimate=est, std_error=0.1, p_value=p)
        for name, est, p in p_values
    )
    return RegressionTable(model_id="M1", dimension=DIM, terms=terms,
                           n_obs=100, n_clusters=10, r_squared=0.25)


def test_render_table_stars_match_printed_values():
    table = make_table([("intercept", 0.148, 0.479),
                        ("dt_prev", 0.00019, 0.00011)])
    text, csv_rows = render_table(table)
    lines = text.splitlines()
    slope_line = next(l for l in lines if l.startswith("dt_prev"))
    assert "***" in slope_line
    intercept_line = next(l for l in lines if l.startswith("intercept"))
    assert "*" not in intercept_line
    table2 = make_table([("intercept", -0.9, 0.0152)])
    text2, _ = render_table(table2)
    assert text2.splitlines()[2].rstrip().endswith("*")
    assert star_legend() in text


def test_render_table_csv_is_unrounded():
    table = make_table([("intercept", 0.123456789012, 0.3),
                        ("dt_prev", 1.9999999999e-4, 2.34e-7)])
    text, csv_rows = render_table(table)
    assert float(csv_rows[0]["estimate"]) == 0.123456789012
    assert float(csv_rows[1]["p_value"]) == 2.34e-7
    assert csv_rows[1]["stars"] == "***"
    assert "< 0.00001" in text


def test_write_table_files(tmp_path):
    table = make_table([("intercept", 1.0, 0.5), ("dt_prev", 2.0, 0.001)])
    write_table_files(table, tmp_path)
    text = (tmp_path / f"M1_{DIM}.txt").read_text()
    assert "n_obs=100" in text
    with open(tmp_path / f"M1_{DIM}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["term"] for r in rows] == ["intercept", "dt_prev"]


# --- svg ---------------------------------------------------------------------------

def test_band_half_width_quadratic_form():
    vcov = ((0.04, -0.01), (-0.01, 0.09))
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = float(rng.normal(scale=3))
        direct = 1.96 * np.sqrt(
            np.array([1.0, x]) @ np.array(vcov) @ np.array([1.0, x]))
        assert band_half_width(x, vcov, 1.96) == pytest.approx(direct, abs=1e-12)


def test_band_zero_for_zero_vcov():
    vcov = ((0.0, 0.0), (0.0, 0.0))
    for x in (-3.0, 0.0, 7.5):
        assert band_half_width(x, vcov, 1.96) == 0.0


def test_band_narrowest_at_center_and_monotone():
    # fit a simple regression, use its CR0 vcov
    rng = np.random.default_rng(1)
    posts = random_tree_posts(rng, 120)
    means = uniform_means(posts, rng)
    features = compute_feature_table(*mean_matrix(posts, means))
    fit = fit_model(get_model_spec("M1"), features, DIM)
    v = fit.vcov
    center = -v[0, 1] / v[1, 1]
    widths_right = [band_half_width(center + step, v, 1.96)
                    for step in np.linspace(0, 20, 40)]
    widths_left = [band_half_width(center - step, v, 1.96)
                   for step in np.linspace(0, 20, 40)]
    assert all(np.diff(widths_right) >= -1e-12)
    assert all(np.diff(widths_left) >= -1e-12)
    assert min(widths_right[0], widths_left[0]) == \
        pytest.approx(band_half_width(center, v, 1.96), abs=1e-12)


def test_nice_ticks_cover_range():
    ticks = nice_ticks(0.0, 10.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
    assert len(ticks) >= 3
    ticks = nice_ticks(-3.7, 2.2)
    assert all(t1 < t2 for t1, t2 in zip(ticks, ticks[1:]))


def test_emit_scatter_structure():
    rng = np.random.default_rng(2)
    posts = random_tree_posts(rng, 60)
    means = uniform_means(posts, rng)
    features = compute_feature_table(*mean_matrix(posts, means))
    # one discussion is one cluster: only the normal reference has a band
    svg = emit_scatter(features, "M1", DIM, pvalue_dist="normal")
    assert svg.startswith("<svg ")
    assert svg.count("<circle") == len(features)
    assert "<polygon" in svg
    assert 'stroke="#cc0000"' in svg
    dim = DIMENSIONS[0]
    assert dim.negative_pole in svg and dim.positive_pole in svg
    # deterministic
    assert emit_scatter(features, "M1", DIM, pvalue_dist="normal") == svg
    with pytest.raises(InsufficientSample):
        emit_scatter(features, "M1", DIM)
    with pytest.raises(ValueError):
        emit_scatter(features, "M5", DIM)
    with pytest.raises(EmptySample):
        emit_scatter(compute_feature_table(*mean_matrix(posts, {}),
                                           strict=False), "M1", DIM)


def test_scatter_band_uses_the_tables_critical_value(monkeypatch):
    # the band and the table p-values share a reference distribution: t with
    # G - 1 df by default, the normal limit with pvalue_dist="normal"
    rng = np.random.default_rng(3)
    posts = [post for d in range(4)
             for post in random_tree_posts(rng, 30, discussion_id=f"d{d}")]
    features = compute_feature_table(
        *mean_matrix(posts, uniform_means(posts, rng)))
    seen = []
    monkeypatch.setattr(report, "scatter_svg",
                        lambda data, z: seen.append(z) or "")
    for dist in ("t", "normal"):
        emit_scatter(features, "M1", DIM, pvalue_dist=dist)
    assert seen == [pytest.approx(stats.t.ppf(0.975, 3), abs=1e-12),
                    pytest.approx(stats.norm.ppf(0.975), abs=1e-15)]


@pytest.mark.parametrize("kind", ["random", "tied"])
def test_circles_match_per_point_formatting(kind):
    rng = np.random.default_rng(8)
    if kind == "random":
        cx, cy = rng.uniform(64, 624, 500), rng.uniform(36, 424, 500)
    else:  # few distinct values, as discrete x and means of integers give
        cx = rng.integers(0, 7, 500) * 80.0 + 64.0
        cy = 230.0 + rng.integers(-20, 21, 500) / 4 * 17.3
    expected = [f'<circle cx="{px:.3f}" cy="{py:.3f}" r="2.5" '
                f'fill="#33547a" fill-opacity="0.55" stroke="none"/>'
                for px, py in zip(cx.tolist(), cy.tolist())]
    assert svgplot._circles(cx, cy) == expected


def test_scatter_svg_zero_band_when_exact():
    data = ScatterData(x=(0.0, 1.0, 2.0), y=(1.0, 3.0, 5.0),
                       intercept=1.0, slope=2.0,
                       vcov=((0.0, 0.0), (0.0, 0.0)),
                       x_label="x", y_label="y", title="t")
    svg = scatter_svg(data, 1.96)
    assert "<polygon" in svg  # degenerate band still renders (zero height)


# --- pipeline ----------------------------------------------------------------------

def synth_inputs(tmp_path, n_discussions=6, mean_posts=12, seed=5):
    config = SynthConfig(n_discussions=n_discussions, mean_posts=mean_posts,
                         model="M4",
                         coefficients={"disagree_vs_agree": (0.1, 0.4)},
                         sigma=0.8, tau=0.3, seed=seed)
    result = generate_corpus(config)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(result.corpus, corpus_path)
    return corpus_path, result


def test_pipeline_end_to_end(tmp_path):
    corpus_path, _ = synth_inputs(tmp_path)
    out = tmp_path / "bundle"
    code = run_pipeline(corpus_path, tmp_path / "cache.jsonl", out,
                        PipelineOptions(mock=True, seed=1))
    assert code == 0
    for name in ("validation.json", "features.csv", "agreement.csv",
                 "correlations.csv", "correlations.txt",
                 "regression_summary.json", "manifest.json"):
        assert (out / name).exists(), name
    tables = sorted(p.name for p in (out / "tables").glob("*.csv"))
    assert len(tables) == 16
    figures = sorted(p.name for p in (out / "figures").glob("*.svg"))
    assert len(figures) == 12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_tables"] == 16
    assert len(manifest["corpus_sha256"]) == 64
    assert not (out / ".threadtone.lock").exists()


def test_pipeline_reuses_cache_and_is_idempotent(tmp_path):
    corpus_path, _ = synth_inputs(tmp_path)
    cache = tmp_path / "cache.jsonl"
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    assert run_pipeline(corpus_path, cache, out1,
                        PipelineOptions(mock=True, seed=1)) == 0
    cache_bytes = cache.read_bytes()
    assert run_pipeline(corpus_path, cache, out2,
                        PipelineOptions(mock=True, seed=1)) == 0
    assert cache.read_bytes() == cache_bytes  # no new entries on rerun
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    # rerunning into the same directory is a byte-identical no-op
    before = {rel: (out1 / rel).read_bytes() for rel in files1}
    assert run_pipeline(corpus_path, cache, out1,
                        PipelineOptions(mock=True, seed=1)) == 0
    after = {rel: (out1 / rel).read_bytes() for rel in files1}
    assert after == before


def test_pipeline_annotation_failure_preserves_validation(tmp_path):
    corpus_path, _ = synth_inputs(tmp_path)
    out = tmp_path / "bundle"
    code = run_pipeline(corpus_path, tmp_path / "cache.jsonl", out,
                        PipelineOptions(mock=False, backend_url=None))
    assert code == 3
    assert (out / "validation.json").exists()
    assert not (out / "manifest.json").exists()
    assert not (out / ".threadtone.lock").exists()


def test_pipeline_validation_failure(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"post_id": "A", "discussion_id": "d", "parent_id": "NO",'
                   ' "author": null, "timestamp": 1, "text": "x"}\n')
    out = tmp_path / "bundle"
    code = run_pipeline(bad, tmp_path / "cache.jsonl", out,
                        PipelineOptions(mock=True))
    assert code == 2
    validation = json.loads((out / "validation.json").read_text())
    assert validation["ok"] is False


def test_pipeline_lock(tmp_path):
    corpus_path, _ = synth_inputs(tmp_path)
    out = tmp_path / "bundle"
    out.mkdir()
    (out / ".threadtone.lock").touch()
    with pytest.raises(RuntimeError):
        run_pipeline(corpus_path, tmp_path / "cache.jsonl", out,
                     PipelineOptions(mock=True))


def test_annotation_content_hash_is_order_free():
    scores = np.arange(2 * 3 * 2).reshape(2, 3, 2)
    a = annotation_content_hash(["p1", "p2"], scores)
    assert a == annotation_content_hash(["p2", "p1"], scores[::-1])
    assert a != annotation_content_hash(["p2", "p1"], scores)


# items that are prefixes of one another ("a", "ab", "a0", "a_"), where a
# sort by item alone would order their lines differently from the full sort
_items = st.lists(st.text(alphabet="ab0_~ é", max_size=4), unique=True,
                  max_size=12)


@settings(max_examples=300, deadline=None)
@given(_items, st.integers(1, 4), st.data())
def test_annotation_content_hash_matches_the_full_sort(items, n_rep, data):
    scores = np.array(data.draw(st.lists(
        st.integers(-5, 5), min_size=len(items) * 3 * n_rep,
        max_size=len(items) * 3 * n_rep)), np.int64).reshape(
        len(items), len(DIMENSIONS), n_rep)
    records = {item: {d.name: row.tolist() for d, row in zip(DIMENSIONS, rows)}
               for item, rows in zip(items, scores)}
    assert (annotation_content_hash(items, scores)
            == annotation_oracle.annotation_content_hash(records))


@pytest.mark.parametrize("items", (["a", "a|b"], ["|"], ["a", "b", "a"]))
def test_annotation_content_hash_needs_distinct_items_without_a_bar(items):
    scores = np.zeros((len(items), len(DIMENSIONS), 2), np.int64)
    with pytest.raises(ValueError, match="distinct and hold no"):
        annotation_content_hash(items, scores)
