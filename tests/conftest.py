"""Shared builders for corpus and annotation test data, a reader of the
annotation cache's in-memory store, and a check that no worker process
outlives a test."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from threadtone import annotate
from threadtone.corpus import (
    Corpus,
    DiscussionTree,
    Post,
    PostArrays,
    parse_corpus,
    post_to_json,
)
from threadtone.dimensions import DIMENSIONS, NAMES

from corpus_oracle import oracle_trees


def mk_post(post_id: str, discussion_id: str = "d1", parent_id: str | None = None,
            timestamp: int = 0, author: str | None = "a",
            text: str | None = None) -> Post:
    return Post(post_id=post_id, discussion_id=discussion_id,
                parent_id=parent_id, author=author, timestamp=timestamp,
                text=text if text is not None else f"text of {post_id}")


def parse_strict(lines) -> tuple[PostArrays, list[str]]:
    """``parse_corpus``'s arrays and texts of the lines; raises its first
    violation."""
    posts, texts, errors = parse_corpus(lines)
    if errors:
        raise errors[0]
    return posts, texts


def corpus_from_posts(posts: list[Post]) -> tuple[PostArrays, list[str]]:
    """The parsed arrays and texts of a corpus's posts."""
    return parse_strict(post_to_json(post) for post in posts)


def writer_corpus(posts: list[Post]) -> Corpus:
    """The ``Corpus`` of valid posts, as ``save_corpus`` takes it."""
    trees = {did: DiscussionTree(did, {pid: tree.depth[pid] for pid in tree.order},
                                 tree.order)
             for did, tree in oracle_trees(posts).items()}
    return Corpus(discussions=trees, posts={post.post_id: post for post in posts})


def random_tree_posts(rng: np.random.Generator, n: int,
                      discussion_id: str = "d1",
                      allow_ties: bool = False) -> list[Post]:
    """A random reply tree: node i >= 1 replies to a uniform earlier node;
    timestamps never precede the parent's."""
    posts = [mk_post(f"{discussion_id}-p{0:04d}", discussion_id, None, 0)]
    times = [0]
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        step = int(rng.integers(0, 5)) if allow_ties else int(rng.integers(1, 3600))
        t = times[parent] + step
        posts.append(mk_post(f"{discussion_id}-p{i:04d}", discussion_id,
                             posts[parent].post_id, t))
        times.append(t)
    return posts


def uniform_means(posts: list[Post], rng: np.random.Generator,
                  lo: float = -5.0, hi: float = 5.0) -> dict[str, dict[str, float]]:
    """Random post-level means for every non-root post, drawn in each
    tree's breadth-first order, the trees in discussion id order."""
    means: dict[str, dict[str, float]] = {}
    for tree in oracle_trees(posts).values():
        for pid, depth in tree.depth.items():
            if depth == 0:
                continue
            means[pid] = {d.name: float(rng.uniform(lo, hi)) for d in DIMENSIONS}
    return means


def mean_matrix(posts: list[Post], means: dict[str, dict[str, float]],
                ) -> tuple[PostArrays, np.ndarray]:
    """A corpus's posts and post id -> dimension -> mean as
    ``compute_feature_table`` takes them: the parsed arrays and an
    (n_posts x n_dimensions) matrix, NaN where a post lacks a dimension."""
    arrays, _ = corpus_from_posts(posts)
    rows = [[means.get(post_id, {}).get(d.name, np.nan) for d in DIMENSIONS]
            for post_id in arrays.posts]
    return arrays, np.array(rows, float).reshape(len(rows), len(DIMENSIONS))


def mean_map(posts: PostArrays, means: np.ndarray) -> dict[str, dict[str, float]]:
    """Reply id -> dimension -> mean, from the posts' arrays and their
    (n_posts x n_dimensions) means in that order."""
    return {posts.posts[i]: dict(zip((d.name for d in DIMENSIONS),
                                     means[i].tolist()))
            for i in np.flatnonzero(posts.parent >= 0)}


def stored_scores(cache: annotate.AnnotationCache) -> dict:
    """Every (pair hash, model, dimension, replication) -> score the cache
    holds: its rows' filled slots, replication r of ``NAMES[d]`` at
    ``row + d * n + r`` for the cache's n replications."""
    n = cache.n_replications
    stored = {}
    for (pair, model), row in cache._rows.items():
        assert row % (len(NAMES) * n) == 0
        for d, name in enumerate(NAMES):
            for rep in range(n):
                score = cache._block[row + d * n + rep]
                if score != annotate._MISSING:
                    stored[pair, model, name, rep] = score
    assert len(cache._block) == len(NAMES) * n * len(cache._rows)
    return stored


@pytest.fixture
def four_node_corpus() -> list[Post]:
    """A root; B, C reply to A; D replies to B."""
    return [
        mk_post("A", timestamp=0),
        mk_post("B", parent_id="A", timestamp=3600),
        mk_post("C", parent_id="A", timestamp=7200),
        mk_post("D", parent_id="B", timestamp=10800),
    ]


@pytest.fixture(autouse=True)
def no_worker_outlives_a_test():
    """Every pool the code under test builds is joined before it returns."""
    yield
    assert multiprocessing.active_children() == []
