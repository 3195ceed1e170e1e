"""Per-row reference implementation of the feature table and model filters.

This is the original, quadratic formulation: every feature of every post is
computed by rescanning the discussion. It is kept as the oracle that the
single-pass columnar ``threadtone.features.compute_feature_table`` and the
mask-based ``threadtone.regression.filter_rows`` / ``fit_model`` must match
exactly.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from threadtone.corpus import Post
from threadtone.dimensions import DIMENSIONS
from threadtone.errors import EmptySample, FeatureError, MissingAnnotation
from threadtone.features import (
    COLUMNS,
    PER_DIMENSION,
    SECONDS_PER_HOUR,
    FeatureTable,
)
from threadtone.regression import ModelSpec, cluster_robust_vcov, ols_fit

from corpus_oracle import OracleTree, oracle_trees
from feature_table_oracle import _csv_header

MeanMap = Mapping[str, Mapping[str, float]]


def order_key(post: Post) -> tuple[int, str]:
    """A post's place in (timestamp, post_id) order."""
    return (post.timestamp, post.post_id)


class NegativeDelta(FeatureError):
    """Child timestamped before its parent; the row is excluded from models."""


@dataclass
class FeatureRow:
    post_id: str
    discussion_id: str
    depth: int
    dt_prev: float | None
    dt_parent: float | None
    metric: dict[str, float]
    parent_metric: dict[str, float | None] = field(default_factory=dict)
    sib_older_mean: dict[str, float | None] = field(default_factory=dict)
    br_neg: dict[str, int | None] = field(default_factory=dict)


def delta_t_prev(post: Post, ordered_posts: list[Post]) -> float | None:
    """Hours since the predecessor in (timestamp, post_id) order; None for
    the earliest post of the scope."""
    key = order_key(post)
    prev = None
    for other in ordered_posts:
        if order_key(other) < key:
            prev = other
        else:
            break
    if prev is None:
        return None
    return (post.timestamp - prev.timestamp) / SECONDS_PER_HOUR


def delta_t_parent(post: Post, posts_by_id: Mapping[str, Post]) -> float | None:
    """Hours since the parent post; None for the root.

    Raises NegativeDelta when the child is timestamped before its parent.
    """
    if post.parent_id is None:
        return None
    parent = posts_by_id[post.parent_id]
    delta = (post.timestamp - parent.timestamp) / SECONDS_PER_HOUR
    if delta < 0:
        raise NegativeDelta(
            f"post {post.post_id} predates its parent {parent.post_id} "
            f"by {-delta:.4g} h")
    return delta


def _older_siblings(post: Post, tree: OracleTree,
                    posts_by_id: Mapping[str, Post]) -> list[Post]:
    if post.parent_id is None:
        return []
    siblings = tree.children.get(post.parent_id, ())
    key = order_key(post)
    return [posts_by_id[pid] for pid in siblings
            if order_key(posts_by_id[pid]) < key]


def older_sibling_mean(post: Post, dimension_name: str, tree: OracleTree,
                       posts_by_id: Mapping[str, Post],
                       means: MeanMap) -> float | None:
    """Mean score of annotated older siblings; None when there are none."""
    values = [means[s.post_id][dimension_name]
              for s in _older_siblings(post, tree, posts_by_id)
              if s.post_id in means and dimension_name in means[s.post_id]]
    if not values:
        return None
    # a left fold in sibling order: what sum() computes for floats up to
    # Python 3.11 (3.12 compensates), and what the running sums reproduce
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def br_neg_indicator(post: Post, dimension_name: str, tree: OracleTree,
                     means: MeanMap) -> int | None:
    """1 iff the branch root's score is strictly negative; None at depth 1.

    A score of exactly zero yields 0 (strict inequality).
    """
    if tree.depth[post.post_id] < 2:
        return None
    branch_root = tree.branch_root_of[post.post_id]
    branch_means = means.get(branch_root)
    if branch_means is None or dimension_name not in branch_means:
        return None
    return 1 if branch_means[dimension_name] < 0 else 0


def oracle_feature_rows(posts: Iterable[Post], means: MeanMap,
                        strict: bool = True,
                        prev_scope: str = "discussion") -> list[FeatureRow]:
    """One FeatureRow per annotated non-root post of a corpus's posts (see
    compute_feature_table)."""
    # a post mapped to no dimension is unannotated: the means matrix that
    # compute_feature_table takes holds it as an all-NaN row
    means = {post_id: dims for post_id, dims in means.items() if dims}
    rows: list[FeatureRow] = []
    posts = list(posts)
    by_id = {post.post_id: post for post in posts}
    for discussion_id, tree in oracle_trees(posts).items():
        # sorted here, not taken from the tree's stored order, so that the
        # oracle checks that order instead of inheriting it
        ordered = sorted((by_id[pid] for pid in tree.depth), key=order_key)
        posts_by_id = {p.post_id: p for p in ordered}
        for post in ordered:
            depth = tree.depth[post.post_id]
            if depth == 0:
                continue
            if post.post_id not in means:
                if strict:
                    raise MissingAnnotation(
                        f"post {post.post_id} (discussion {discussion_id}) "
                        f"has no annotation")
                continue
            try:
                dt_par = delta_t_parent(post, posts_by_id)
            except NegativeDelta:
                continue

            if prev_scope == "branch":
                branch = tree.branch_root_of[post.post_id]
                pool = [p for p in ordered
                        if p.post_id == tree.root_id
                        or tree.branch_root_of.get(p.post_id) == branch]
            else:
                pool = ordered
            dt_prev = delta_t_prev(post, pool)

            row = FeatureRow(
                post_id=post.post_id,
                discussion_id=discussion_id,
                depth=depth,
                dt_prev=dt_prev,
                dt_parent=dt_par,
                metric=dict(means[post.post_id]),
            )
            parent_annotated = (depth >= 2 and post.parent_id in means)
            for dim in DIMENSIONS:
                row.parent_metric[dim.name] = (
                    means[post.parent_id].get(dim.name)
                    if parent_annotated else None)
                row.sib_older_mean[dim.name] = older_sibling_mean(
                    post, dim.name, tree, posts_by_id, means)
                row.br_neg[dim.name] = br_neg_indicator(
                    post, dim.name, tree, means)
            rows.append(row)
    return rows


def _cell(value: float | int | None) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def oracle_csv_text(rows: list[FeatureRow]) -> str:
    """The feature CSV as the per-row writer rendered it."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_csv_header())
    for row in rows:
        record = [row.post_id, row.discussion_id, str(row.depth),
                  _cell(row.dt_prev), _cell(row.dt_parent)]
        for dim in DIMENSIONS:
            record += [
                _cell(row.metric.get(dim.name)),
                _cell(row.parent_metric.get(dim.name)),
                _cell(row.sib_older_mean.get(dim.name)),
                _cell(row.br_neg.get(dim.name)),
            ]
        writer.writerow(record)
    return fh.getvalue()


# --- conversions between rows and the columnar table ------------------------------

def table_from_rows(rows: Iterable[FeatureRow]) -> FeatureTable:
    """The FeatureTable holding exactly these rows (None becomes NaN)."""
    def nan(value):
        return math.nan if value is None else value

    rows = list(rows)
    values = [[nan(r.dt_prev), nan(r.dt_parent)]
              + [nan(getattr(r, kind).get(dim.name))
                 for dim in DIMENSIONS for kind in PER_DIMENSION]
              for r in rows]
    return FeatureTable(
        post_id=tuple(r.post_id for r in rows),
        discussion_id=tuple(r.discussion_id for r in rows),
        depth=np.array([r.depth for r in rows], dtype=np.int64),
        values=np.array(values, dtype=float).reshape(len(rows), len(COLUMNS)))


def assert_table_equals_rows(table: FeatureTable, rows: list[FeatureRow]) -> None:
    """Cell-for-cell, order-preserving, exact equality (NaN for None)."""
    want = table_from_rows(rows)
    assert table.post_id == want.post_id
    assert table.discussion_id == want.discussion_id
    assert np.array_equal(table.depth, want.depth)
    assert table.values.shape == want.values.shape == (len(rows), len(COLUMNS))
    for j, key in enumerate(COLUMNS):
        assert np.array_equal(table.values[:, j], want.values[:, j],
                              equal_nan=True), key


# --- per-row model filter and design ------------------------------------------------

def row_field(row: FeatureRow, name: str, dimension: str) -> float | None:
    if name == "dt_prev":
        return row.dt_prev
    if name == "dt_parent":
        return row.dt_parent
    if name == "metric":
        return row.metric.get(dimension)
    if name == "parent_metric":
        return row.parent_metric.get(dimension)
    if name == "sib_older_mean":
        return row.sib_older_mean.get(dimension)
    if name == "br_neg":
        value = row.br_neg.get(dimension)
        return None if value is None else float(value)
    raise ValueError(f"unknown feature field {name!r}")


def term_value(row: FeatureRow, term: str, dimension: str) -> float | None:
    product = 1.0
    for name in term.split(":"):
        value = row_field(row, name, dimension)
        if value is None:
            return None
        product *= value
    return product


def oracle_filter_rows(spec: ModelSpec, rows: Iterable[FeatureRow],
                       dimension: str) -> list[FeatureRow]:
    """Rows with the response and every required field present."""
    kept = []
    for row in rows:
        if dimension not in row.metric:
            continue
        if all(row_field(row, name, dimension) is not None
               for name in spec.base_fields()):
            kept.append(row)
    return kept


def oracle_fit(spec: ModelSpec, rows: list[FeatureRow], dimension: str,
               cr_correction: bool = False):
    """(x, y, clusters, beta, vcov) with the design assembled row by row."""
    sample = oracle_filter_rows(spec, rows, dimension)
    if not sample:
        raise EmptySample(f"{spec.id}/{dimension}: no rows pass the filter")
    x = np.ones((len(sample), 1 + len(spec.terms)))
    for j, term in enumerate(spec.terms, start=1):
        x[:, j] = [term_value(row, term, dimension) for row in sample]
    y = np.array([row.metric[dimension] for row in sample])
    clusters = tuple(row.discussion_id for row in sample)
    beta, residuals = ols_fit(x, y)
    vcov = cluster_robust_vcov(x, residuals, clusters,
                               small_sample=cr_correction)
    return x, y, clusters, beta, vcov
