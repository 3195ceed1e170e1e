"""Property test: the annotate stage's score array against the dict path.

``annotate_corpus`` returns one pair x dimension x replication array over
the distinct (parent, child) pairs, with each reply's row in it, and the
pipeline's means, agreement, correlations and manifest hash all read it.
``annotation_oracle`` keeps the per-post dict path it replaced, run
serially. On small random corpora (duplicate (parent, child) texts, replies
timestamped before their parent, post ids that sort apart from tree order),
with an empty, a partly filled or a full cache, 1 or 4 replications and 1
or 2 workers, both paths must give every reply the same scores, make the
same backend requests (the array path also counting them in its
result) and leave the same cache contents, and give the same
feature columns, agreement rows (items keyed by pair hash), Spearman matrix
and content hash, bit for bit. A warm rerun then looks every distinct
pair's scores up once.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import annotation_oracle as oracle
from conftest import corpus_from_posts, mean_matrix, mk_post, stored_scores
from threadtone.agreement import agreement_report, correlation_report
from threadtone.annotate import (
    AnnotationCache,
    MockBackend,
    annotate_corpus,
    pair_content_hash,
)
from threadtone.dimensions import DIMENSIONS, AnnotationScale
from threadtone.features import compute_feature_table
from threadtone.report import annotation_content_hash

TEXTS = ("yes", "no", "maybe so")  # few texts: duplicate pairs are common


@st.composite
def corpora(draw):
    """The posts of 1-3 discussions of 1-8 posts with ids in a random
    order."""
    posts = []
    for d in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 8))
        ids = [f"d{d}-p{label}" for label in draw(st.permutations(range(n)))]
        for i in range(n):
            parent = None if i == 0 else ids[draw(st.integers(0, i - 1))]
            posts.append(mk_post(ids[i], f"d{d}", parent,
                                 draw(st.integers(0, 6)) * 600,
                                 text=draw(st.sampled_from(TEXTS))))
    return posts


def annotate_parsed(posts, backend, cache, n_replications, **options):
    """``annotate_corpus`` of the posts' parsed arrays and texts, into a
    cache that holds ``n_replications``, the oracle's parameter."""
    assert cache.n_replications == n_replications
    return annotate_corpus(*corpus_from_posts(posts), backend, cache, **options)


@contextmanager
def counted_gets():
    """Count AnnotationCache.get hits and misses while the block runs."""
    get = AnnotationCache.get
    counts = {"hit": 0, "miss": 0}

    def counted(cache, key):
        value = get(cache, key)
        counts["hit" if value is not None else "miss"] += 1
        return value

    AnnotationCache.get = counted
    try:
        yield counts
    finally:
        AnnotationCache.get = get


class CountingMock(MockBackend):
    """The mock backend, counting the requests it answers."""

    def __init__(self, seed):
        super().__init__(seed=seed)
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, prompt, replication_index):
        with self._lock:
            self.calls += 1
        return super().complete(prompt, replication_index)


def annotate(path, corpus, run, n_replications, concurrency):
    """Annotate with mock seed 2 into the cache at ``path``; returns the
    result, the requests the backend answered and the loaded cache
    contents."""
    backend = CountingMock(seed=2)
    cache = AnnotationCache(path, n_replications)
    try:
        result = run(corpus, backend, cache, n_replications=n_replications,
                     concurrency=concurrency)
    finally:
        cache.close()
    return (result, backend.calls,
            stored_scores(AnnotationCache(path, n_replications)))


def assert_same_bits(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora(), fill=st.sampled_from(("empty", "partial", "full")),
       n_replications=st.sampled_from((1, 4)),
       concurrency=st.sampled_from((1, 2)), data=st.data())
def test_score_array_matches_the_dict_path(corpus, fill, n_replications,
                                           concurrency, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        seeded = tmp / "seeded.jsonl"
        seeded.touch()
        if fill != "empty":
            # another seed's scores, so kept and fresh ones differ
            cache = AnnotationCache(seeded, n_replications)
            oracle.annotate_corpus(corpus, MockBackend(seed=1), cache,
                                   n_replications=n_replications)
            cache.close()
        if fill == "partial":
            lines = seeded.read_text().splitlines(keepends=True)
            keep = data.draw(st.lists(st.booleans(), min_size=len(lines),
                                      max_size=len(lines)))
            seeded.write_text("".join(line for line, k in zip(lines, keep)
                                      if k))
        for name in ("array.jsonl", "dict.jsonl"):
            shutil.copy(seeded, tmp / name)

        got, calls, cached = annotate(tmp / "array.jsonl", corpus,
                                      annotate_parsed, n_replications,
                                      concurrency)
        records, oracle_calls, oracle_cached = annotate(
            tmp / "dict.jsonl", corpus, oracle.annotate_corpus,
            n_replications, 1)

    reply_ids = [got.posts.posts[i] for i in got.reply.tolist()]
    assert sorted(reply_ids) == sorted(records)
    items = oracle.by_pair(corpus, records)
    assert got.pair_hashes == list(dict.fromkeys(
        got.pair_hashes[k] for k in got.row.tolist()))
    assert sorted(got.pair_hashes) == sorted(items)
    assert got.scores.dtype == np.int64
    assert got.scores.shape == (len(items), len(DIMENSIONS), n_replications)
    for post_id, k in zip(reply_ids, got.row.tolist()):
        assert got.scores[k].tolist() == [list(records[post_id][d.name])
                                          for d in DIMENSIONS]
    assert cached == oracle_cached
    assert got.requests == calls == oracle_calls

    features = compute_feature_table(got.posts, got.means(), strict=False)
    expected = compute_feature_table(
        *mean_matrix(corpus, oracle.means_of(records)), strict=False)
    assert features.post_id == expected.post_id
    assert_same_bits(features.depth, expected.depth)
    assert_same_bits(features.values, expected.values)

    for unanimity in (False, True):
        assert (repr(agreement_report(got.pair_hashes, got.scores,
                                      unanimity=unanimity))
                == repr(oracle.agreement_report(items, unanimity=unanimity)))
    metric = np.column_stack([features.column("metric", d.name)
                              for d in DIMENSIONS])
    assert_same_bits(correlation_report(features.post_id, metric),
                     oracle.correlation_report(features))
    assert (annotation_content_hash(got.pair_hashes, got.scores)
            == oracle.annotation_content_hash(items))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(corpus=corpora(), n_replications=st.sampled_from((1, 4)),
       concurrency=st.sampled_from((1, 2)))
def test_a_warm_rerun_looks_each_score_up_once(corpus, n_replications,
                                               concurrency):
    by_id = {post.post_id: post for post in corpus}
    pairs = len({pair_content_hash(by_id[post.parent_id].text, post.text,
                                   AnnotationScale())
                 for post in corpus if post.parent_id is not None})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        cold, _, _ = annotate(path, corpus, annotate_parsed, n_replications,
                              concurrency)
        with counted_gets() as counts:
            warm, calls, _ = annotate(path, corpus, annotate_parsed,
                                      n_replications, concurrency)
    assert warm.requests == calls == 0
    assert counts == {"hit": pairs * len(DIMENSIONS) * n_replications,
                      "miss": 0}
    assert_same_bits(warm.scores, cold.scores)
