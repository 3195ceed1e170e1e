import io
import json

import numpy as np
import pytest

from threadtone.corpus import (
    build_tree,
    load_corpus,
    parse_corpus,
    post_to_json,
    save_corpus,
    serialize_corpus,
    validate_corpus,
)
from threadtone.errors import (
    CycleDetected,
    DuplicateId,
    MalformedRecord,
    MissingTimestamp,
    MultipleRoots,
    OrphanPost,
)

from conftest import corpus_from_posts, mk_post, random_tree_posts


def lines(*records: dict) -> io.StringIO:
    return io.StringIO("\n".join(json.dumps(r) for r in records) + "\n")


def record(post_id, parent_id=None, timestamp=0, discussion_id="d1", **extra):
    rec = {"post_id": post_id, "discussion_id": discussion_id,
           "parent_id": parent_id, "author": "someone",
           "timestamp": timestamp, "text": f"body {post_id}"}
    rec.update(extra)
    return rec


def test_parse_minimal_corpus():
    corpus = parse_corpus(lines(
        record("A", timestamp=0),
        record("B", parent_id="A", timestamp=3600),
        record("C", parent_id="A", timestamp=7200),
    ))
    assert len(corpus.discussions) == 1
    assert len(corpus.posts) == 3
    assert corpus.discussions["d1"].root_id == "A"


def test_orphan_parent_rejected():
    with pytest.raises(OrphanPost):
        parse_corpus(lines(record("A"), record("B", parent_id="Z", timestamp=1)))


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        parse_corpus(lines(record("A"), record("B", timestamp=1)))


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        parse_corpus(lines(record("A"), record("A", timestamp=1)))


def test_missing_timestamp_rejected():
    bad = record("A")
    del bad["timestamp"]
    with pytest.raises(MissingTimestamp):
        parse_corpus(lines(bad))


def test_malformed_json_and_fields():
    with pytest.raises(MalformedRecord):
        parse_corpus(io.StringIO("{not json}\n"))
    with pytest.raises(MalformedRecord):
        parse_corpus(lines(record("A", unexpected=1)))
    with pytest.raises(MalformedRecord):
        parse_corpus(lines(record("A", timestamp=-5)))
    with pytest.raises(MalformedRecord, match="below 2"):
        parse_corpus(lines(record("A", timestamp=2 ** 63)))
    parse_corpus(lines(record("A", timestamp=2 ** 63 - 1)))
    with pytest.raises(MalformedRecord):
        parse_corpus(lines(record("A", timestamp=1.5)))


def test_lenient_drops_offending_discussion(caplog):
    diagnostics = []
    corpus = parse_corpus(lines(
        record("A"),
        record("B", parent_id="A", timestamp=1),
        record("X", discussion_id="d2"),
        record("Y", discussion_id="d2", parent_id="MISSING", timestamp=2),
    ), lenient=True, diagnostics=diagnostics)
    assert set(corpus.discussions) == {"d1"}
    assert len(diagnostics) == 1
    assert "OrphanPost" in diagnostics[0]


def test_build_tree_four_nodes():
    tree = build_tree([
        mk_post("A", timestamp=0),
        mk_post("B", parent_id="A", timestamp=1),
        mk_post("C", parent_id="A", timestamp=2),
        mk_post("D", parent_id="B", timestamp=3),
    ])
    assert tree.depth == {"A": 0, "B": 1, "C": 1, "D": 2}
    assert tree.branch_root_of == {"B": "B", "C": "C", "D": "B"}
    assert tree.children["A"] == ("B", "C")


def test_build_tree_cycle():
    with pytest.raises(CycleDetected):
        build_tree([
            mk_post("R", timestamp=0),
            mk_post("A", parent_id="C", timestamp=1),
            mk_post("B", parent_id="A", timestamp=2),
            mk_post("C", parent_id="B", timestamp=3),
        ])
    # no root at all: every post has a parent
    with pytest.raises(CycleDetected):
        build_tree([
            mk_post("A", parent_id="B", timestamp=1),
            mk_post("B", parent_id="A", timestamp=2),
        ])


def test_single_post_discussion():
    tree = build_tree([mk_post("A", timestamp=0)])
    assert len(tree.depth) == 1
    assert tree.children == {}
    assert tree.branch_root_of == {}


def test_children_order_breaks_ties_by_id():
    tree = build_tree([
        mk_post("A", timestamp=0),
        mk_post("z", parent_id="A", timestamp=5),
        mk_post("b", parent_id="A", timestamp=5),
        mk_post("c", parent_id="A", timestamp=4),
    ])
    assert tree.children["A"] == ("c", "b", "z")


def test_tree_invariants_on_random_trees():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 201))
        posts = random_tree_posts(rng, n, allow_ties=True)
        tree = build_tree(posts)
        assert sum(map(len, tree.children.values())) == len(tree.depth) - 1
        # BFS from root reaches every node exactly once
        seen = []
        queue = [tree.root_id]
        while queue:
            pid = queue.pop(0)
            seen.append(pid)
            queue.extend(tree.children.get(pid, ()))
        assert sorted(seen) == sorted(p.post_id for p in posts)
        assert len(seen) == len(set(seen))
        # children per parent sorted by (timestamp, post_id)
        by_id = {p.post_id: p for p in posts}
        for kids in tree.children.values():
            keys = [by_id[k].order_key() for k in kids]
            assert keys == sorted(keys)
        assert tree.order == tuple(sorted(by_id, key=lambda pid:
                                          by_id[pid].order_key()))


def test_branch_root_matches_parent_walk_oracle():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 201))
        posts = random_tree_posts(rng, n)
        tree = build_tree(posts)
        by_id = {p.post_id: p for p in posts}
        for pid, depth in tree.depth.items():
            if depth == 0:
                continue
            walker = pid
            while tree.depth[walker] > 1:
                walker = by_id[walker].parent_id
            assert tree.branch_root_of[pid] == walker


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    posts = []
    for d in range(4):
        posts += random_tree_posts(rng, int(rng.integers(1, 40)), f"disc{d}")
    corpus = corpus_from_posts(posts)
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    reparsed = load_corpus(path)
    assert reparsed == corpus
    # serialization itself is stable
    assert list(serialize_corpus(reparsed)) == list(serialize_corpus(corpus))


def test_round_trip_preserves_unicode(tmp_path):
    corpus = corpus_from_posts([
        mk_post("A", text="naïve – résumé ✓"),
        mk_post("B", parent_id="A", timestamp=1, text="回复 \"quoted\"\nline"),
    ])
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_validate_corpus_reports(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(post_to_json(mk_post("A")) + "\n", encoding="utf-8")
    corpus, diagnostics = validate_corpus(good)
    assert corpus is not None and diagnostics == []

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"post_id": "B", "discussion_id": "d",
                               "parent_id": "NOPE", "author": None,
                               "timestamp": 3, "text": "x"}) + "\n",
                   encoding="utf-8")
    corpus, diagnostics = validate_corpus(bad)
    assert corpus is None
    assert len(diagnostics) == 1 and "OrphanPost" in diagnostics[0]
