"""The annotate stage's per-post dict path, the oracle for the score array.

Before ``annotate_corpus`` returned one pair x dimension x replication
array, the pipeline carried the scores as dicts: ``annotate_corpus`` gave
post id -> dimension -> replication-ordered tuple, annotating every reply
on its own, a means dict of that fed ``compute_feature_table``, agreement
built each ratings matrix from the rows of a dict, the correlations re-keyed
the feature rows' means by post id, and the manifest's
``annotations_sha256`` hashed one line per item and dimension. This module
keeps that path, with the statistics themselves taken from
``threadtone.agreement``. Agreement and the manifest hash now key their
items by (parent, child) content hash; ``by_pair`` re-keys the records so.
Run serially, the path annotates a duplicated pair once and reads it back
from the cache for every later reply.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from itertools import combinations

import numpy as np

from threadtone.agreement import (
    DimensionAgreement,
    dispersion_stats,
    fleiss_kappa,
    krippendorff_alpha_interval,
    spearman_rho,
)
from threadtone.annotate import (
    build_prompt,
    pair_content_hash,
    parse_annotation_json,
)
from threadtone.dimensions import DIMENSIONS, AnnotationScale
from threadtone.errors import (
    AnnotationFailed,
    AnnotationParseError,
    BackendError,
    DegenerateData,
    EmptyText,
)

NAMES = tuple(d.name for d in DIMENSIONS)


def annotate_pair(parent, child, backend, cache, scale=AnnotationScale(),
                  n_replications=4, max_retries=3, cache_timestamp=0):
    """dimension -> replication-ordered scores of one pair, cache-first."""
    if not parent.text.strip() or not child.text.strip():
        raise EmptyText("parent and child texts must be non-empty")
    pair_hash = pair_content_hash(parent.text, child.text, scale)
    model = backend.model
    scores = {name: [cache.get((pair_hash, model, name, rep))
                     for rep in range(n_replications)]
              for name in NAMES}
    missing = [rep for rep, row in enumerate(zip(*scores.values()))
               if None in row]
    if missing:
        prompt = build_prompt(parent.text, child.text, scale)
    for rep in missing:
        last_error = None
        fresh = None
        for _attempt in range(max_retries + 1):
            try:
                fresh = parse_annotation_json(backend.complete(prompt, rep),
                                              scale)
                break
            except (AnnotationParseError, BackendError) as exc:
                last_error = exc
        if fresh is None:
            raise AnnotationFailed(
                f"pair {child.post_id}, replication {rep}: giving up after "
                f"{max_retries + 1} attempts ({last_error})")
        for name, reps in scores.items():
            if reps[rep] is None:
                reps[rep] = fresh[name]
                cache.put((pair_hash, model, name, rep), reps[rep],
                          cache_timestamp)
    return {name: tuple(reps) for name, reps in scores.items()}


def annotate_corpus(posts, backend, cache, scale=AnnotationScale(),
                    n_replications=4, max_retries=3, concurrency=1,
                    cache_timestamp=0):
    """post id -> dimension -> replication-ordered scores of every reply of
    a corpus's posts, in (discussion, timestamp, post id) order."""
    by_id = {post.post_id: post for post in posts}
    ordered = sorted(posts, key=lambda post: (post.discussion_id,
                                              post.timestamp, post.post_id))
    pairs = [(by_id[post.parent_id], post) for post in ordered
             if post.parent_id is not None]

    def work(pair):
        parent, child = pair
        return child.post_id, annotate_pair(parent, child, backend, cache,
                                            scale, n_replications,
                                            max_retries, cache_timestamp)

    if concurrency <= 1:
        return dict(map(work, pairs))
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        return dict(pool.map(work, pairs))


def by_pair(posts, records, scale=AnnotationScale()):
    """The records of a corpus's posts re-keyed by each reply's (parent,
    child) content hash; replies sharing a pair hold the same scores when
    annotated serially."""
    by_id = {post.post_id: post for post in posts}
    out = {}
    for post_id, dims in records.items():
        child = by_id[post_id]
        parent = by_id[child.parent_id]
        out[pair_content_hash(parent.text, child.text, scale)] = dims
    return out


def means_of(records):
    """post id -> dimension -> mean, as the pipeline averaged them."""
    return {post_id: {name: sum(scores) / len(scores)
                      for name, scores in dims.items()}
            for post_id, dims in records.items()}


def agreement_report(records, scale=AnnotationScale(), unanimity=False):
    """Per-dimension reliability over the items every dimension holds, each
    matrix built from the item-sorted rows of a dict."""
    by_dimension = {name: {item: dims[name] for item, dims in records.items()
                           if name in dims}
                    for name in NAMES}
    common = set.intersection(*(set(items) for items in by_dimension.values()))
    report = []
    for name in NAMES:
        items = tuple(sorted(common))
        values = np.array([by_dimension[name][item] for item in items],
                          dtype=int).T
        if not items:
            values = values.reshape(0, 0)
        n_raters, n_items = values.shape
        if n_raters < 2 or n_items < 2:
            stats = [float("nan")] * 7
        else:
            stats = [krippendorff_alpha_interval(values),
                     fleiss_kappa(values, scale),
                     *astuple(dispersion_stats(values, unanimity=unanimity))]
        report.append(DimensionAgreement(name, n_items, n_raters, *stats))
    return report


def correlation_report(features):
    """The Spearman matrix of the feature rows' means, re-keyed by post id
    and read back one post at a time."""
    metric = {name: features.column("metric", name).tolist()
              for name in NAMES}
    means = {post_id: {name: values[i] for name, values in metric.items()
                       if values[i] == values[i]}  # NaN: absent
             for i, post_id in enumerate(features.post_id)}
    posts = sorted(pid for pid, vals in means.items()
                   if all(name in vals for name in NAMES))
    series = [[means[pid][name] for pid in posts] for name in NAMES]
    out = np.eye(len(NAMES))
    for i, j in combinations(range(len(NAMES)), 2):
        try:
            out[i, j] = out[j, i] = spearman_rho(series[i], series[j])
        except (ValueError, DegenerateData):
            out[i, j] = out[j, i] = np.nan
    return out


def annotation_content_hash(records):
    """The manifest's order-independent hash, one line at a time."""
    lines = []
    for post_id in sorted(records):
        for dim_name in sorted(records[post_id]):
            scores = records[post_id][dim_name]
            lines.append(f"{post_id}|{dim_name}|{','.join(map(str, scores))}")
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
