"""Property tests: the array-pass feature table and the mask-based model
fits against the per-row oracle in ``feature_oracle``.

Random corpora have several discussions, timestamp ties, children that
predate their parent, unannotated posts and posts annotated on only some
dimensions; some add a star discussion whose root has thousands of
replies, so that the older-sibling fold steps over thousands of ranks.
Every comparison is exact.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadtone.dimensions import DIMENSIONS
from threadtone.errors import MissingAnnotation, StatsError
from threadtone.features import compute_feature_table, write_features_csv
from threadtone.regression import MODEL_IDS, filter_rows, fit_model, get_model_spec

from conftest import mean_matrix, mk_post
from feature_oracle import (
    assert_table_equals_rows,
    oracle_csv_text,
    oracle_feature_rows,
    oracle_filter_rows,
    oracle_fit,
)

DIM_NAMES = [d.name for d in DIMENSIONS]
SCOPES = ("discussion", "branch")
SPECS = [get_model_spec(m) for m in MODEL_IDS] + [
    get_model_spec("M6", m6_relax_sibling_filter=True)]

scores = st.one_of(st.integers(-20, 20).map(lambda v: v / 4),
                   st.floats(-5.0, 5.0, allow_nan=False))


@st.composite
def annotated_corpora(draw):
    """(posts, means) with 1-3 discussions of 1-30 posts each."""
    posts, means = [], {}
    for d in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 30))
        # ids in a random order, so that id ties break differently from
        # creation order; timestamps in a narrow range, so ties are common
        # and children often predate their parent
        labels = draw(st.permutations(range(n)))
        ids = [f"d{d}-p{label:02d}" for label in labels]
        for i in range(n):
            parent = None if i == 0 else ids[draw(st.integers(0, i - 1))]
            posts.append(mk_post(ids[i], f"d{d}", parent,
                                 draw(st.integers(0, 12)) * 1800))
            kind = draw(st.sampled_from(("all", "all", "some", "none")))
            if kind == "all":
                means[ids[i]] = {name: draw(scores) for name in DIM_NAMES}
            elif kind == "some":
                dims = draw(st.sets(st.sampled_from(DIM_NAMES)))
                means[ids[i]] = {name: draw(scores) for name in sorted(dims)}
    return posts, means


@st.composite
def forests_with_a_star(draw):
    """annotated_corpora plus a star discussion: a root with 2,000-2,200
    replies, a tenth of them to earlier replies, on a narrow time grid that
    puts some before the root, with the same mix of annotations."""
    corpus, means = draw(annotated_corpora())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(2_001, 2_201))
    ids = [f"star-p{label:04d}" for label in rng.permutation(n)]
    posts = [*corpus, mk_post(ids[0], "star", None, 3600)]
    for i in range(1, n):
        to_reply = i > 1 and rng.random() < 0.1
        parent = ids[int(rng.integers(1, i))] if to_reply else ids[0]
        posts.append(mk_post(ids[i], "star", parent,
                             int(rng.integers(0, 40)) * 1800))
        kind = rng.random()
        if kind < 0.9:  # the rest stay unannotated
            dims = [name for name in DIM_NAMES
                    if kind < 0.7 or rng.random() < 0.5]
            means[ids[i]] = {name: float(rng.integers(-20, 21)) / 4
                             if rng.random() < 0.5 else rng.uniform(-5, 5)
                             for name in dims}
    return posts, means


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(annotated_corpora())
def test_table_matches_oracle_cell_for_cell(data):
    corpus, means = data
    for scope in SCOPES:
        table = compute_feature_table(*mean_matrix(corpus, means),
                                      strict=False, prev_scope=scope)
        rows = oracle_feature_rows(corpus, means, strict=False,
                                   prev_scope=scope)
        assert_table_equals_rows(table, rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "features.csv"
            write_features_csv(table, path)
            assert path.read_text(encoding="utf-8") == oracle_csv_text(rows)


@PROPERTY_SETTINGS
@given(annotated_corpora())
def test_strict_mode_raises_on_the_same_post(data):
    corpus, means = data
    try:
        oracle_feature_rows(corpus, means, strict=True)
    except MissingAnnotation as exc:
        with pytest.raises(MissingAnnotation) as got:
            compute_feature_table(*mean_matrix(corpus, means), strict=True)
        assert str(got.value) == str(exc)
    else:
        assert_table_equals_rows(
            compute_feature_table(*mean_matrix(corpus, means)),
            oracle_feature_rows(corpus, means))


@PROPERTY_SETTINGS
@given(annotated_corpora())
def test_masks_and_fits_match_oracle(data):
    corpus, means = data
    for scope in SCOPES:
        table = compute_feature_table(*mean_matrix(corpus, means),
                                      strict=False, prev_scope=scope)
        rows = oracle_feature_rows(corpus, means, strict=False,
                                   prev_scope=scope)
        for spec in SPECS:
            for dim in DIM_NAMES:
                mask = filter_rows(spec, table, dim)
                assert mask.dtype == bool and mask.shape == (len(table),)
                kept = [pid for pid, keep in zip(table.post_id, mask) if keep]
                assert kept == [r.post_id
                                for r in oracle_filter_rows(spec, rows, dim)]
                try:
                    x, y, clusters, beta, vcov = oracle_fit(spec, rows, dim)
                except StatsError as exc:
                    with pytest.raises(type(exc)):
                        fit_model(spec, table, dim)
                    continue
                fit = fit_model(spec, table, dim)
                assert np.array_equal(fit.x, x)
                assert np.array_equal(fit.y, y)
                # each code is its discussion's rank among the table's ids
                distinct = sorted(set(table.discussion_id))
                assert fit.cluster.dtype == np.int64
                assert [distinct[c] for c in fit.cluster.tolist()] == list(clusters)
                assert np.array_equal(fit.beta, beta)
                assert np.array_equal(fit.vcov, vcov)


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(forests_with_a_star(), st.sampled_from(SCOPES))
def test_star_discussion_matches_oracle(data, scope):
    corpus, means = data
    rows = oracle_feature_rows(corpus, means, strict=False, prev_scope=scope)
    assert_table_equals_rows(
        compute_feature_table(*mean_matrix(corpus, means), strict=False,
                              prev_scope=scope),
        rows)
    with pytest.raises(MissingAnnotation) as got:
        compute_feature_table(*mean_matrix(corpus, means), prev_scope=scope)
    with pytest.raises(MissingAnnotation) as want:
        oracle_feature_rows(corpus, means, prev_scope=scope)
    assert str(got.value) == str(want.value)
