"""Temporal and tree-structural regressors for annotated posts.

For every annotated (non-root) post this module derives: the delay since the
previous post in the discussion, the delay since the parent post, the mean
score of annotated older siblings, the parent's score, and the branch-root
negative-sign indicator. Field presence follows fixed rules: parent scores
and branch-root indicators exist only at depth >= 2 (replies to the root
have an unannotated parent), sibling means only when an annotated older
sibling exists.

The table is built in one array pass over ``corpus.PostArrays`` (every
post's parent and timestamp, in (timestamp, post_id) order per discussion)
and a matrix of the posts' means; only the older-sibling sums step, once
per sibling rank. It holds ``post_id``, ``discussion_id`` and ``depth`` per
row and one float64 rows x ``len(COLUMNS)`` matrix of the features in
``features.csv``'s column order: ``dt_prev``, ``dt_parent``, then per
dimension ``<dim>_metric``, ``<dim>_parent_metric``,
``<dim>_sib_older_mean`` and ``<dim>_br_neg`` (0 or 1). NaN means absent.
"""

from __future__ import annotations

import csv
import logging
import re
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import PostArrays, tree_arrays
from .dimensions import NAMES
from .errors import FeatureFileError, MissingAnnotation

log = logging.getLogger(__name__)

SECONDS_PER_HOUR = 3600.0
NAN = float("nan")

PER_DIMENSION = ("metric", "parent_metric", "sib_older_mean", "br_neg")
COLUMNS = ("dt_prev", "dt_parent") + tuple(
    f"{name}_{kind}" for name in NAMES for kind in PER_DIMENSION)
_HEADER = ("post_id", "discussion_id", "depth") + COLUMNS
_INDEX = {key: j for j, key in enumerate(COLUMNS)}
_QUOTED = re.compile('[,"\r\n]')  # a cell holding one is quoted


def cluster_codes(ids: Sequence) -> np.ndarray:
    """Each id's int64 rank among the distinct ids, in Python order: the
    order ``np.unique`` gives a string array, whose conversion would drop
    trailing NULs and merge ids that differ only by them."""
    rank = {key: code for code, key in enumerate(sorted(set(ids)))}
    return np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """One row per annotated non-root post: its ids and depth, and in
    ``values[:, j]`` the feature ``COLUMNS[j]`` (each column contiguous).
    ``cluster`` holds each row's discussion as ``cluster_codes``, the
    regressions' cluster ids."""

    post_id: tuple[str, ...]
    discussion_id: tuple[str, ...]
    depth: np.ndarray
    values: np.ndarray
    cluster: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cluster", cluster_codes(self.discussion_id))

    def __len__(self) -> int:
        return len(self.post_id)

    def column(self, name: str, dimension: str) -> np.ndarray:
        """A feature by model field name; NaN where it is absent.
        ValueError for a field or dimension that has no column."""
        key = f"{dimension}_{name}" if name in PER_DIMENSION else name
        if key not in _INDEX:
            raise ValueError(f"unknown feature column {key!r}")
        return self.values[:, _INDEX[key]]


def compute_feature_table(posts: PostArrays, means: np.ndarray,
                          strict: bool = True,
                          prev_scope: str = "discussion") -> FeatureTable:
    """One row per annotated non-root post, discussions in id order and
    posts in (timestamp, post_id) order.

    ``means`` is an (n_posts x n_dimensions) matrix in the order of
    ``posts.posts``, NaN where a post lacks a dimension and all NaN for an
    unannotated post.
    ``prev_scope`` selects the predecessor pool for dt_prev: the whole
    discussion (default) or the post's own branch plus the discussion root.
    Posts timestamped before their parent are dropped from the table (and
    hence from every model sample) with a warning; in strict mode a non-root
    post without annotations raises MissingAnnotation. Dropped and skipped
    posts still count as predecessors and, when annotated, as older
    siblings.
    """
    if prev_scope not in ("discussion", "branch"):
        raise ValueError(f"prev_scope must be 'discussion' or 'branch', "
                         f"got {prev_scope!r}")
    annotated = ~np.isnan(means).all(axis=1)
    ids, parent, stamp = posts.posts, posts.parent, posts.timestamp
    depth, branch_root, sibling_rank = tree_arrays(parent)
    # each post's discussion by position: a string array would drop NULs
    discussion = np.repeat(np.arange(len(posts.discussion_ids)),
                           np.diff(posts.starts))
    reply = parent >= 0
    # a root's parent -1 reads the last post, which ``reply`` masks
    early = reply & annotated & (stamp < stamp[parent])
    for i in np.flatnonzero(reply & (early | ~annotated)).tolist():
        if annotated[i]:
            p = int(parent[i])
            log.warning("excluding %s from model samples: it predates its "
                        "parent %s by %.4g h", ids[i], ids[p],
                        int(stamp[p] - stamp[i]) / SECONDS_PER_HOUR)
        elif strict:
            raise MissingAnnotation(
                f"post {ids[i]} (discussion "
                f"{posts.discussion_ids[discussion[i]]}) has no annotation")
        else:
            log.warning("skipping unannotated post %s", ids[i])
    rows = np.flatnonzero(reply & annotated & ~early)

    if prev_scope == "branch":
        # the latest earlier post of the branch, or the root if that is later
        order = np.argsort(branch_root, kind="stable")
        same = branch_root[order[1:]] == branch_root[order[:-1]]
        prev = np.full(len(ids), -1)
        prev[order[1:][same]] = order[:-1][same]
        root = np.repeat(np.flatnonzero(~reply), np.diff(posts.starts))
        later = root < np.arange(len(ids))
        prev = np.maximum(prev, np.where(later, root, -1))[rows]
    else:
        prev = np.where(np.isin(rows, posts.starts), -1, rows - 1)
    p, t = parent[rows], stamp[rows]
    deep = (depth[rows] >= 2)[:, None]
    branch = means[branch_root[rows]]
    values = np.empty((len(COLUMNS), len(rows)))
    values[0] = np.where(prev < 0, NAN, (t - stamp[prev]) / SECONDS_PER_HOUR)
    values[1] = (t - stamp[p]) / SECONDS_PER_HOUR
    # dimension x kind x row: COLUMNS' per-dimension order
    per_dimension = values[2:].reshape(len(NAMES), len(PER_DIMENSION),
                                       len(rows))
    per_dimension[:, 0] = means[rows].T
    per_dimension[:, 1] = np.where(deep, means[p], NAN).T
    per_dimension[:, 2] = _older_sibling_means(parent, sibling_rank,
                                               means)[rows].T
    per_dimension[:, 3] = np.where(deep & ~np.isnan(branch), branch < 0, NAN).T
    return FeatureTable(
        post_id=tuple(ids[i] for i in rows.tolist()),
        discussion_id=tuple(map(posts.discussion_ids.__getitem__,
                                discussion[rows].tolist())),
        depth=depth[rows],
        values=values.T)


def _older_sibling_means(parent: np.ndarray, rank: np.ndarray,
                         means: np.ndarray) -> np.ndarray:
    """Per post and dimension, the mean of its annotated older siblings'
    means (NaN without one). Each sum is a left fold from 0.0 in sibling
    order, as a per-post loop keeps it (np.sum's pairwise or a compensated
    sum would change the last bits): the fold steps over the sibling rank,
    every parent's next sibling at once."""
    present = ~np.isnan(means)
    # each row: the sums per dimension, then the counts (exact as floats)
    values = np.hstack([np.where(present, means, 0.0), present])
    totals = np.zeros_like(values)                 # per parent, so far
    older = np.zeros_like(values)                  # per post, before it
    replies = np.flatnonzero(parent >= 0)
    by_rank = replies[np.argsort(rank[replies], kind="stable")]
    ranks = rank[by_rank]
    steps = np.flatnonzero(np.r_[True, ranks[1:] != ranks[:-1], True]).tolist()
    for lo, hi in zip(steps[:-1], steps[1:]):
        at = by_rank[lo:hi]
        p = parent[at]                             # distinct within a rank
        older[at] = totals[p]
        totals[p] += values[at]
    sums, counts = np.hsplit(older, 2)
    return np.where(counts > 0, sums / np.maximum(counts, 1), NAN)


# --- CSV interchange ----------------------------------------------------------

def _id_cells(ids: tuple[str, ...]) -> Sequence[str]:
    """Ids as CSV cells: quoted, with each quote doubled, when they hold a
    comma, a quote or a line break, so that they read back as they are."""
    if not _QUOTED.search("".join(ids)):  # the usual case: none does
        return ids
    return ['"' + i.replace('"', '""') + '"' if _QUOTED.search(i) else i
            for i in ids]


def write_features_csv(features: FeatureTable, path: str | Path) -> None:
    cells = [_id_cells(features.post_id), _id_cells(features.discussion_id),
             list(map(str, features.depth.tolist()))]
    for key, column in zip(COLUMNS, features.values.T):
        # each distinct bit pattern is formatted once (-0.0, 0.0 and NaN stay
        # apart); tolist() yields Python floats: repr(np.float64) is not a number
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
        if key.endswith("_br_neg"):
            text = ["" if v != v else str(int(v)) for v in distinct.tolist()]
        else:
            text = list(map(repr, distinct.tolist()))
            for k in np.flatnonzero(np.isnan(distinct)).tolist():
                text[k] = ""
        cells.append(np.array(text, object)[inverse].tolist())
    lines = [",".join(_HEADER), *map(",".join, zip(*cells)), ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


def _bad_cell(record: list[str]) -> tuple[int, ValueError]:
    """The column and error of a row's first cell that does not convert."""
    for column, cell in enumerate(record[2:], start=2):
        try:
            int(cell) if column == 2 else float(cell) if cell != "" else None
        except ValueError as exc:
            return column, exc


def read_features_csv(path: str | Path) -> FeatureTable:
    """The table ``write_features_csv`` wrote. Raises FeatureFileError,
    naming the file, when it cannot be read or holds anything else. Rows
    are converted as they are read, yet the error is the first a whole-file
    read meets: the header, the text, a row's length, then the first bad
    cell by column (depth first), then by row."""
    post_id, discussion_id, depth = [], [], []
    values = array("d")
    misshapen, bad = False, None  # reported once the whole file is read
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != _HEADER:
                raise ValueError("unexpected header")
            for record in reader:
                if len(record) != len(_HEADER):
                    misshapen |= bool(record)
                    continue
                try:
                    depth.append(int(record[2]))
                    values.extend([float(v) if v != "" else NAN
                                   for v in record[3:]])
                except ValueError:
                    column, error = _bad_cell(record)
                    if bad is None or column < bad[0]:
                        bad = column, error
                post_id.append(record[0])
                discussion_id.append(record[1])
        if misshapen:
            raise ValueError("a row's cells do not match the header")
        if bad is not None:
            raise bad[1]
    except (OSError, ValueError, csv.Error) as exc:  # an OSError: its reason
        raise FeatureFileError(f"cannot read feature table {path}: "
                               f"{getattr(exc, 'strerror', None) or exc}") from None
    matrix = np.frombuffer(values).reshape(len(depth), len(COLUMNS))
    return FeatureTable(post_id=tuple(post_id),
                        discussion_id=tuple(discussion_id),
                        depth=np.array(depth, np.int64),
                        values=np.asfortranarray(matrix))  # columns contiguous
