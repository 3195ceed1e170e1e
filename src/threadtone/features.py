"""Temporal and tree-structural regressors for annotated posts.

For every annotated (non-root) post this module derives: the delay since the
previous post in the discussion, the delay since the parent post, the mean
score of annotated older siblings, the parent's score, and the branch-root
negative-sign indicator. Field presence follows fixed rules: parent scores
and branch-root indicators exist only at depth >= 2 (replies to the root
have an unannotated parent), sibling means only when an annotated older
sibling exists.

The table is built in one pass per discussion over its posts in
(timestamp, post_id) order, keeping a running predecessor (per discussion,
and per branch for ``prev_scope="branch"``) and running per-parent sibling
sums. It is stored as columns: ``post_id``, ``discussion_id`` and ``depth``
per row, float64 ``dt_prev`` and ``dt_parent``, and per dimension float64
``metric``, ``parent_metric``, ``sib_older_mean`` and ``br_neg`` (0 or 1).
NaN means absent.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .corpus import Corpus
from .dimensions import DIMENSIONS
from .errors import MissingAnnotation

log = logging.getLogger(__name__)

SECONDS_PER_HOUR = 3600.0
NAN = float("nan")

# annotations are addressed as post_id -> dimension name -> mean score
MeanMap = Mapping[str, Mapping[str, float]]

PER_DIMENSION = ("metric", "parent_metric", "sib_older_mean", "br_neg")


def _csv_header() -> list[str]:
    header = ["post_id", "discussion_id", "depth", "dt_prev", "dt_parent"]
    for dim in DIMENSIONS:
        header += [f"{dim.name}_{kind}" for kind in PER_DIMENSION]
    return header


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """One row per annotated non-root post, stored as columns."""

    post_id: tuple[str, ...]
    discussion_id: tuple[str, ...]
    depth: np.ndarray
    dt_prev: np.ndarray
    dt_parent: np.ndarray
    metric: dict[str, np.ndarray]
    parent_metric: dict[str, np.ndarray]
    sib_older_mean: dict[str, np.ndarray]
    br_neg: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.post_id)

    def column(self, name: str, dimension: str) -> np.ndarray:
        """A feature by model field name; NaN where it is absent."""
        if name in ("dt_prev", "dt_parent"):
            return getattr(self, name)
        if name in PER_DIMENSION:
            return getattr(self, name)[dimension]
        raise ValueError(f"unknown feature field {name!r}")

    def csv_columns(self) -> list[np.ndarray | tuple]:
        """Columns in ``_csv_header()`` order."""
        columns = [self.post_id, self.discussion_id, self.depth,
                   self.dt_prev, self.dt_parent]
        for dim in DIMENSIONS:
            columns += [getattr(self, kind)[dim.name] for kind in PER_DIMENSION]
        return columns

    @classmethod
    def from_csv_columns(cls, columns: dict[str, list]) -> "FeatureTable":
        """Build from lists keyed by ``_csv_header()`` names."""
        def floats(key: str) -> np.ndarray:
            return np.array(columns[key], dtype=float)

        return cls(
            post_id=tuple(columns["post_id"]),
            discussion_id=tuple(columns["discussion_id"]),
            depth=np.array(columns["depth"], dtype=np.int64),
            dt_prev=floats("dt_prev"),
            dt_parent=floats("dt_parent"),
            **{kind: {dim.name: floats(f"{dim.name}_{kind}")
                      for dim in DIMENSIONS}
               for kind in PER_DIMENSION},
        )


def compute_feature_table(corpus: Corpus, means: MeanMap, strict: bool = True,
                          prev_scope: str = "discussion") -> FeatureTable:
    """One row per annotated non-root post, discussions in id order and
    posts in (timestamp, post_id) order.

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
    columns: dict[str, list] = {key: [] for key in _csv_header()}
    per_dim = [(dim.name, *(columns[f"{dim.name}_{kind}"]
                            for kind in PER_DIMENSION))
               for dim in DIMENSIONS]
    for discussion_id in corpus.discussion_ids():
        tree = corpus.discussions[discussion_id]
        ordered = corpus.posts_of(discussion_id)
        root_at = -1                                # index of the root, once seen
        last_at: dict[str, int] = {}                # branch root -> last index
        # parent id -> dimension -> [sum, count] of annotated children so far:
        # a left fold in sibling order, not pairwise (np.sum) or compensated
        # summation, which would change the last bits of the means
        sib_sums: dict[str, dict[str, list]] = {}
        for i, post in enumerate(ordered):
            post_id = post.post_id
            depth = tree.depth[post_id]
            if depth == 0:
                root_at = i
                continue
            post_means = means.get(post_id)
            if post_means is None and strict:
                raise MissingAnnotation(
                    f"post {post_id} (discussion {discussion_id}) "
                    f"has no annotation")
            branch = tree.branch_root_of[post_id]
            sums = sib_sums.setdefault(post.parent_id, {})
            parent = corpus.posts[post.parent_id]
            if post_means is None:
                log.warning("skipping unannotated post %s", post_id)
            elif post.timestamp < parent.timestamp:
                log.warning("excluding %s from model samples: it predates "
                            "its parent %s by %.4g h", post_id, parent.post_id,
                            (parent.timestamp - post.timestamp)
                            / SECONDS_PER_HOUR)
            else:
                prev_at = (max(last_at.get(branch, -1), root_at)
                           if prev_scope == "branch" else i - 1)
                columns["post_id"].append(post_id)
                columns["discussion_id"].append(discussion_id)
                columns["depth"].append(depth)
                columns["dt_prev"].append(
                    NAN if prev_at < 0 else
                    (post.timestamp - ordered[prev_at].timestamp)
                    / SECONDS_PER_HOUR)
                columns["dt_parent"].append(
                    (post.timestamp - parent.timestamp) / SECONDS_PER_HOUR)
                parent_means = means.get(post.parent_id) if depth >= 2 else None
                branch_means = means.get(branch) if depth >= 2 else None
                for name, metric, parent_metric, sib_mean, br_neg in per_dim:
                    metric.append(post_means.get(name, NAN))
                    parent_metric.append(NAN if parent_means is None
                                         else parent_means.get(name, NAN))
                    acc = sums.get(name)
                    sib_mean.append(NAN if acc is None else acc[0] / acc[1])
                    br = None if branch_means is None else branch_means.get(name)
                    br_neg.append(NAN if br is None else float(br < 0))
            last_at[branch] = i
            for name, value in (post_means or {}).items():
                acc = sums.setdefault(name, [0.0, 0])
                acc[0] += value
                acc[1] += 1
    return FeatureTable.from_csv_columns(columns)


# --- CSV interchange ----------------------------------------------------------

def _cell(value: float | int) -> str:
    if value != value:  # NaN: absent
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def write_features_csv(features: FeatureTable, path: str | Path) -> None:
    header = _csv_header()
    cells = []
    for key, column in zip(header, features.csv_columns()):
        if isinstance(column, tuple):
            cells.append(column)
        elif key.endswith("_br_neg"):
            cells.append(["" if v != v else str(int(v)) for v in column.tolist()])
        else:
            # tolist() yields Python floats: repr(np.float64) is not a number
            cells.append([_cell(v) for v in column.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def read_features_csv(path: str | Path) -> FeatureTable:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = _csv_header()
        if header != expected:
            raise ValueError(f"unexpected feature CSV header {header}")
        records = [record for record in reader if record]
    columns = {key: [record[j] for record in records]
               for j, key in enumerate(expected)}
    columns["depth"] = [int(v) for v in columns["depth"]]
    for key in expected[3:]:
        columns[key] = [float(v) if v != "" else NAN for v in columns[key]]
    return FeatureTable.from_csv_columns(columns)
