import dataclasses
import io
import json

import numpy as np
import pytest

from threadtone.corpus import (
    PostArrays,
    load_corpus,
    parse_corpus,
    post_to_json,
    save_corpus,
    serialize_corpus,
    tree_arrays,
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

from conftest import (
    corpus_from_posts,
    mk_post,
    parse_strict,
    random_tree_posts,
    writer_corpus,
)
from corpus_oracle import build_tree as oracle_build_tree


def lines(*records: dict) -> io.StringIO:
    return io.StringIO("\n".join(json.dumps(r) for r in records) + "\n")


def record(post_id, parent_id=None, timestamp=0, discussion_id="d1", **extra):
    rec = {"post_id": post_id, "discussion_id": discussion_id,
           "parent_id": parent_id, "author": "someone",
           "timestamp": timestamp, "text": f"body {post_id}"}
    rec.update(extra)
    return rec


def test_parse_minimal_corpus():
    posts, texts = parse_strict(lines(
        record("A", timestamp=0),
        record("B", parent_id="A", timestamp=3600),
        record("C", parent_id="A", timestamp=7200),
    ))
    assert posts.discussion_ids == ("d1",)
    assert posts.posts == ("A", "B", "C")
    assert texts == ["body A", "body B", "body C"]
    assert posts.starts.tolist() == [0, 3]
    assert posts.parent.tolist() == [-1, 0, 0]
    assert posts.timestamp.tolist() == [0, 3600, 7200]
    assert tree_arrays(posts.parent)[0].tolist() == [0, 1, 1]


def test_orphan_parent_rejected():
    with pytest.raises(OrphanPost):
        parse_strict(lines(record("A"), record("B", parent_id="Z", timestamp=1)))


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots):
        parse_strict(lines(record("A"), record("B", timestamp=1)))


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        parse_strict(lines(record("A"), record("A", timestamp=1)))


def test_missing_timestamp_rejected():
    bad = record("A")
    del bad["timestamp"]
    with pytest.raises(MissingTimestamp):
        parse_strict(lines(bad))


def test_malformed_json_and_fields():
    with pytest.raises(MalformedRecord):
        parse_strict(io.StringIO("{not json}\n"))
    with pytest.raises(MalformedRecord):
        parse_strict(lines(record("A", unexpected=1)))
    with pytest.raises(MalformedRecord):
        parse_strict(lines(record("A", timestamp=-5)))
    with pytest.raises(MalformedRecord, match="below 2"):
        parse_strict(lines(record("A", timestamp=2 ** 63)))
    parse_strict(lines(record("A", timestamp=2 ** 63 - 1)))
    with pytest.raises(MalformedRecord):
        parse_strict(lines(record("A", timestamp=1.5)))


@pytest.mark.parametrize("field", ["post_id", "discussion_id", "parent_id",
                                   "author", "text"])
@pytest.mark.parametrize("lone", ["\ud800", "\udfff"])
def test_an_escaped_lone_surrogate_is_a_malformed_record(field, lone):
    # json.dumps escapes it, so the line itself is ASCII
    bad = {**record("B", parent_id="A", timestamp=1), field: f"x{lone}y"}
    with pytest.raises(MalformedRecord) as info:
        parse_strict(lines(record("A"), bad))
    assert info.value.diagnostic() == (
        f"MalformedRecord line=2: {field} holds a lone surrogate {ascii(lone)}")
    # an escaped surrogate pair decodes to one character, which is kept
    pair = {**record("B", parent_id="A", timestamp=1), "text": "\U0001f600"}
    assert parse_strict(lines(record("A"), pair))[1] == ["body A", "\U0001f600"]


def test_lenient_drops_offending_discussion(tmp_path, caplog):
    path = tmp_path / "corpus.jsonl"
    path.write_text(lines(
        record("A"),
        record("B", parent_id="A", timestamp=1),
        record("X", discussion_id="d2"),
        record("Y", discussion_id="d2", parent_id="MISSING", timestamp=2),
    ).getvalue(), encoding="utf-8")
    posts, texts, diagnostics = validate_corpus(path)
    assert posts.discussion_ids == ("d1",)
    assert posts.posts == ("A", "B") and texts == ["body A", "body B"]
    assert len(diagnostics) == 1
    assert "OrphanPost" in diagnostics[0]
    assert caplog.messages == diagnostics  # logged once


def tree_of(posts):
    """The parsed ids and each one's depth, of one discussion's posts."""
    arrays, _ = corpus_from_posts(posts)
    return arrays.posts, dict(zip(arrays.posts,
                                  tree_arrays(arrays.parent)[0].tolist()))


def test_build_tree_four_nodes():
    order, depth = tree_of([
        mk_post("A", timestamp=0),
        mk_post("B", parent_id="A", timestamp=1),
        mk_post("C", parent_id="A", timestamp=2),
        mk_post("D", parent_id="B", timestamp=3),
    ])
    assert depth == {"A": 0, "B": 1, "C": 1, "D": 2}
    assert order == ("A", "B", "C", "D")
    depth, branch_root, rank = tree_arrays(np.array([-1, 0, 0, 1]))
    assert depth.tolist() == [0, 1, 1, 2]
    assert branch_root.tolist() == [0, 1, 2, 1]
    assert rank.tolist() == [0, 0, 1, 0]


def test_build_tree_cycle():
    with pytest.raises(CycleDetected):
        tree_of([
            mk_post("R", timestamp=0),
            mk_post("A", parent_id="C", timestamp=1),
            mk_post("B", parent_id="A", timestamp=2),
            mk_post("C", parent_id="B", timestamp=3),
        ])
    # no root at all: every post has a parent
    with pytest.raises(CycleDetected):
        tree_of([
            mk_post("A", parent_id="B", timestamp=1),
            mk_post("B", parent_id="A", timestamp=2),
        ])
    # a post that replies to itself, below a valid root
    with pytest.raises(CycleDetected, match="1 posts unreachable"):
        tree_of([mk_post("R", timestamp=0),
                 mk_post("S", parent_id="S", timestamp=1)])


def test_single_post_discussion():
    order, depth = tree_of([mk_post("A", timestamp=0)])
    assert depth == {"A": 0}
    assert order == ("A",)


def test_children_order_breaks_ties_by_id():
    order, _ = tree_of([
        mk_post("A", timestamp=0),
        mk_post("z", parent_id="A", timestamp=5),
        mk_post("b", parent_id="A", timestamp=5),
        mk_post("c", parent_id="A", timestamp=4),
    ])
    assert order == ("A", "c", "b", "z")


def test_tree_invariants_on_random_trees():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(1, 201))
        posts = random_tree_posts(rng, n, allow_ties=True)
        (order, depth), oracle = tree_of(posts), oracle_build_tree(posts)
        # the breadth-first walk from the root reaches every post once
        assert depth == oracle.depth
        by_id = {p.post_id: p for p in posts}
        for post in posts:
            if post.parent_id is not None:
                assert depth[post.post_id] == depth[post.parent_id] + 1
        assert order == oracle.order == tuple(
            sorted(by_id, key=lambda pid: (by_id[pid].timestamp, pid)))


def test_branch_root_matches_parent_walk_oracle():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 201))
        posts = random_tree_posts(rng, n)
        arrays, _ = corpus_from_posts(posts)
        parent = arrays.parent.tolist()
        _, branch_root, _ = tree_arrays(arrays.parent)
        for i in range(len(parent)):
            walker = i
            while parent[walker] >= 0 and parent[parent[walker]] >= 0:
                walker = parent[walker]
            assert branch_root[i] == walker


def assert_round_trip(posts, path) -> None:
    """Saving the posts and loading the file gives the columns parsing
    them gives, and the file holds their lines in the parsed order."""
    save_corpus(writer_corpus(posts), path)
    (reparsed, texts), (parsed, parsed_texts) = (load_corpus(path),
                                                 corpus_from_posts(posts))
    for field in dataclasses.fields(PostArrays):
        a, b = getattr(reparsed, field.name), getattr(parsed, field.name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    assert texts == parsed_texts
    by_id = {post.post_id: post for post in posts}
    lines = [post_to_json(by_id[pid]) for pid in reparsed.posts]
    assert path.read_text(encoding="utf-8").splitlines() == lines
    # serialization itself is stable
    assert list(serialize_corpus(writer_corpus(posts))) == lines


def test_round_trip_identity(tmp_path):
    rng = np.random.default_rng(3)
    posts = []
    for d in range(4):
        posts += random_tree_posts(rng, int(rng.integers(1, 40)), f"disc{d}")
    assert_round_trip(posts, tmp_path / "corpus.jsonl")


def test_round_trip_preserves_unicode(tmp_path):
    assert_round_trip([
        mk_post("A", text="naïve – résumé ✓"),
        mk_post("B", parent_id="A", timestamp=1, text="回复 \"quoted\"\nline"),
    ], tmp_path / "corpus.jsonl")


def test_validate_corpus_reports(tmp_path):
    good = tmp_path / "good.jsonl"
    good.write_text(post_to_json(mk_post("A")) + "\n", encoding="utf-8")
    posts, texts, diagnostics = validate_corpus(good)
    assert posts.posts == ("A",) and texts == ["text of A"]
    assert diagnostics == []

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"post_id": "B", "discussion_id": "d",
                               "parent_id": "NOPE", "author": None,
                               "timestamp": 3, "text": "x"}) + "\n",
                   encoding="utf-8")
    posts, texts, diagnostics = validate_corpus(bad)
    assert posts.discussion_ids == () and posts.posts == () and texts == []
    assert len(diagnostics) == 1 and "OrphanPost" in diagnostics[0]


def test_undecodable_bytes_are_a_malformed_record(tmp_path):
    a, b, c = (post_to_json(post).encode("utf-8") for post in (
        mk_post("A"), mk_post("B", parent_id="A", timestamp=1, text="café"),
        mk_post("C", parent_id="A", timestamp=2)))
    # CRLF and a lone CR end lines 1 and 2, so the bad bytes are line 3
    data = a + b"\r\n" + b + b"\r" + b'\xff{"x": 1}\n' + c + b"\n"
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    diagnostic = "MalformedRecord line=3: invalid UTF-8 byte 0xff at character 1"
    with pytest.raises(MalformedRecord) as info:
        load_corpus(path)
    assert info.value.diagnostic() == diagnostic
    posts, texts, diagnostics = validate_corpus(path)
    assert diagnostics == [diagnostic]
    assert posts.posts == ("A", "B", "C")
    assert texts[1] == "café"
    # byte lines give the same diagnostic
    _, _, errors = parse_corpus(
        io.BytesIO(data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")))
    assert [err.diagnostic() for err in errors] == [diagnostic]
