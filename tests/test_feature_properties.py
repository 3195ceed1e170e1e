"""Property tests: the single-pass columnar feature table and the mask-based
model fits against the per-row oracle in ``feature_oracle``.

Random corpora have several discussions, timestamp ties, children that
predate their parent, unannotated posts and posts annotated on only some
dimensions. Every comparison is exact.
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

from conftest import corpus_from_posts, mk_post
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
    """(corpus, means) with 1-3 discussions of 1-30 posts each."""
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
    return corpus_from_posts(posts), means


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@PROPERTY_SETTINGS
@given(annotated_corpora())
def test_table_matches_oracle_cell_for_cell(data):
    corpus, means = data
    for scope in SCOPES:
        table = compute_feature_table(corpus, means, strict=False,
                                      prev_scope=scope)
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
            compute_feature_table(corpus, means, strict=True)
        assert str(got.value) == str(exc)
    else:
        assert_table_equals_rows(compute_feature_table(corpus, means),
                                 oracle_feature_rows(corpus, means))


@PROPERTY_SETTINGS
@given(annotated_corpora())
def test_masks_and_fits_match_oracle(data):
    corpus, means = data
    for scope in SCOPES:
        table = compute_feature_table(corpus, means, strict=False,
                                      prev_scope=scope)
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
                assert fit.cluster_ids == clusters
                assert np.array_equal(fit.beta, beta)
                assert np.array_equal(fit.vcov, vcov)
