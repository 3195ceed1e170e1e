"""Property tests: ``parse_corpus`` and ``tree_arrays`` against the
parser and the breadth-first builder in ``corpus_oracle``.

Random forests get timestamp ties, shuffled input order and one injected
violation per discussion: two roots, an orphan, a parent in another (or a
missing) discussion, a rootless cycle, a duplicate id, or a cycle of length
1-8 (with replies below it) hanging off a valid root; a corpus may also be
empty. The first error must be the one the oracle raises in strict mode
(type, message and fields); all of them must be the diagnostics the oracle
gives in lenient mode, in the same order, and the columns must hold the
oracle's discussions and their posts in each tree's ``order``: the same ids,
discussion ids, starts, parent positions, timestamps, texts and depths.

``post_to_json`` must write the bytes of the ``json.dumps`` oracle in
``writer_oracle`` for any post the parser reads back: strings with quotes,
backslashes, control and non-ASCII characters, null parents and authors,
and timestamps up to 2**63 - 1.

The strict-line pattern ``_EXACT`` must match every line of the bundled
corpus and every line ``post_to_json`` writes for strings that need no
escape, giving their fields. Lines it must refuse (escapes, bytes that are
not UTF-8, timestamps that are not plain integers below 10**18, keys out of
order, repeated or extra, other spacing, ``\r\n`` endings) must parse as
the oracle parses them: the same errors, fields and columns.
"""

import io
import json
import re
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from threadtone.corpus import (
    _EXACT,
    Post,
    _parse_record,
    parse_corpus,
    post_to_json,
    tree_arrays,
)
from threadtone.errors import CorpusError

import corpus_oracle
import writer_oracle

VIOLATIONS = ("none", "two roots", "orphan", "other discussion",
              "rootless cycle", "duplicate", "cycle below root")


@st.composite
def discussions(draw, discussion_id: str) -> list[Post]:
    """One discussion's posts in a random input order."""
    n = draw(st.integers(1, 12))
    parents = [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    violation = draw(st.sampled_from(VIOLATIONS))
    if violation == "cycle below root":
        k = draw(st.integers(1, 8))
        below = draw(st.integers(0, 3))
        start = len(parents)
        # post start + j replies to start + j + 1, the last one to the first
        parents += [start + (j + 1) % k for j in range(k)]
        parents += [start + draw(st.integers(0, k - 1)) for _ in range(below)]
    ids = [f"{discussion_id}-{v}" for v in
           draw(st.permutations(range(len(parents))))]
    parent_ids = [None if p < 0 else ids[p] for p in parents]
    if violation == "two roots" and n > 1:
        parent_ids[draw(st.integers(1, n - 1))] = None
    elif violation == "orphan":
        parent_ids[draw(st.integers(0, n - 1))] = f"{discussion_id}-gone"
    elif violation == "other discussion":  # d0-d2 may exist, d3 does not
        parent_ids[draw(st.integers(0, n - 1))] = f"d{draw(st.integers(0, 3))}-0"
    elif violation == "rootless cycle":
        parent_ids[0] = ids[draw(st.integers(0, n - 1))]
    elif violation == "duplicate" and n > 1:
        ids[draw(st.integers(1, n - 1))] = ids[0]
    posts = [Post(post_id, discussion_id, parent_id, None,
                  draw(st.integers(0, 3)), "text")
             for post_id, parent_id in zip(ids, parent_ids)]
    return draw(st.permutations(posts))


@st.composite
def corpus_lines(draw) -> list[str]:
    posts = [post for k in range(draw(st.integers(0, 3)))
             for post in draw(discussions(f"d{k}"))]
    return [post_to_json(post) for post in draw(st.permutations(posts))]


def fields(err: CorpusError):
    return (type(err), str(err), err.discussion_id, err.post_id, err.line_no)


def columns(posts, texts):
    """A parsed corpus as lists: ids, discussion ids, starts, parent
    positions, timestamps, texts and depths."""
    return (list(posts.posts), list(posts.discussion_ids), posts.starts.tolist(),
            posts.parent.tolist(), posts.timestamp.tolist(), texts,
            tree_arrays(posts.parent)[0].tolist())


def oracle_columns(trees, by_id):
    """The same lists from the oracle's trees and posts."""
    posts = [by_id[pid] for tree in trees.values() for pid in tree.order]
    at = {post.post_id: i for i, post in enumerate(posts)}
    return ([post.post_id for post in posts], list(trees),
            np.cumsum([0] + [len(tree.order) for tree in trees.values()]).tolist(),
            [at.get(post.parent_id, -1) for post in posts],
            [post.timestamp for post in posts], [post.text for post in posts],
            [trees[post.discussion_id].depth[post.post_id] for post in posts])


def assert_parses_as_the_oracle(data: str | bytes) -> None:
    """The first error is the strict oracle's, every error the lenient
    oracle's diagnostics, and the columns its trees'."""
    source = io.BytesIO if isinstance(data, bytes) else io.StringIO
    posts, texts, errors = parse_corpus(source(data))
    try:
        corpus_oracle.parse_corpus(source(data))
    except CorpusError as err:
        assert fields(errors[0]) == fields(err)
    else:
        assert errors == []
    diagnostics: list[str] = []
    oracle = corpus_oracle.parse_corpus(source(data), lenient=True,
                                        diagnostics=diagnostics)
    assert [err.diagnostic() for err in errors] == diagnostics
    assert columns(posts, texts) == oracle_columns(*oracle)


@settings(max_examples=400, deadline=None)
@given(corpus_lines())
def test_parse_corpus_matches_oracle(lines):
    assert_parses_as_the_oracle("\n".join(lines) + "\n")


def _timestamp(value: str):
    return lambda line: re.sub(r'"timestamp": [0-9]+', f'"timestamp": {value}',
                               line)


def _reorder(line: str) -> str:
    return json.dumps(dict(reversed(json.loads(line).items())),
                      ensure_ascii=False)


# Edits that turn a post_to_json line into one the strict pattern refuses;
# _parse_record decides what each one holds.
REFUSED_EDITS = {
    "escaped quote": lambda line: line.replace('"text": "', '"text": "\\"'),
    "escaped backslash": lambda line: line.replace('"text": "',
                                                   '"text": "\\\\'),
    "escaped e-acute": lambda line: line.replace('"text": "',
                                                 '"text": "\\u00e9'),
    "escaped surrogate": lambda line: line.replace('"text": "',
                                                   '"text": "\\ud800'),
    "escaped id": lambda line: line.replace('"post_id": "', '"post_id": "\\u0041'),
    "raw tab": lambda line: line.replace('"text": "', '"text": "\t'),
    "timestamp -0": _timestamp("-0"),
    "timestamp 1.0": _timestamp("1.0"),
    "timestamp 1e3": _timestamp("1e3"),
    "timestamp 01": _timestamp("01"),
    "timestamp 10**18": _timestamp("1" + "0" * 18),
    "timestamp 19 nines": _timestamp("9" * 19),
    "reordered keys": _reorder,
    "duplicate key": lambda line: line.replace('{"post_id": ',
                                               '{"post_id": "x", "post_id": ', 1),
    "extra key": lambda line: line[:-1] + ', "extra": 1}',
    "compact": lambda line: json.dumps(json.loads(line), ensure_ascii=False,
                                       separators=(",", ":")),
    "extra space": lambda line: line.replace(", ", ",  ", 1),
    "leading space": lambda line: " " + line,
    "trailing space": lambda line: line + " ",
    "crlf": lambda line: line + "\r",
}


def _refused(line: str | bytes) -> bool:
    if isinstance(line, bytes):
        line = line.decode("utf-8", "surrogateescape")
    return _EXACT.fullmatch(line + "\n") is None


@settings(max_examples=300, deadline=None)
@given(corpus_lines(), st.data())
def test_lines_the_strict_pattern_refuses_parse_as_the_oracle(lines, data):
    if not lines:
        lines = [post_to_json(Post("p", "d", None, None, 0, "text"))]
    edited = list(lines)
    for k in data.draw(st.sets(st.integers(0, len(lines) - 1), min_size=1)):
        name = data.draw(st.sampled_from(sorted(REFUSED_EDITS) + ["non-UTF-8"]))
        if name == "non-UTF-8":  # a byte that no UTF-8 sequence holds
            edited[k] = lines[k].encode("utf-8").replace(b'"text": "',
                                                         b'"text": "\xff')
        else:
            edited[k] = REFUSED_EDITS[name](lines[k])
        assert _refused(edited[k]), name
    encoded = [line if isinstance(line, bytes) else line.encode("utf-8")
               for line in edited]
    assert_parses_as_the_oracle(b"\n".join(encoded) + b"\n")


def test_every_refused_edit_is_refused():
    line = post_to_json(Post("p", "d", "q", "a", 1600000000, "text"))
    assert not _refused(line)
    for name, edit in REFUSED_EDITS.items():
        assert _refused(edit(line)), name


# strings that need no escape in a JSON line, and are no surrogate
plain_texts = st.text(st.characters(codec="utf-8", min_codepoint=0x20,
                                    exclude_characters='"\\'))


@settings(max_examples=300, deadline=None)
@given(st.builds(Post, post_id=plain_texts, discussion_id=plain_texts,
                 parent_id=st.none() | plain_texts,
                 author=st.none() | plain_texts,
                 timestamp=st.sampled_from([0, 10 ** 18 - 1])
                 | st.integers(0, 10 ** 18 - 1),
                 text=plain_texts))
def test_the_strict_pattern_reads_every_plain_line(post):
    line = post_to_json(post)
    for ending in ("", "\n"):
        match = _EXACT.fullmatch(line + ending)
        assert match is not None
        assert match.groups() == (post.post_id, post.discussion_id,
                                  post.parent_id, str(post.timestamp),
                                  post.text)


def test_the_strict_pattern_reads_every_bundled_line():
    path = Path(__file__).resolve().parent.parent / "data" / "synthetic_corpus.jsonl"
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = list(fh)
    assert len(lines) == 2328
    for line in lines:
        match = _EXACT.fullmatch(line)
        assert match is not None, line
        record = _parse_record(line, 1)
        assert match.groups() == tuple(
            str(record[name]) if name == "timestamp" else record[name]
            for name in ("post_id", "discussion_id", "parent_id", "timestamp",
                         "text"))


@st.composite
def forests_with_a_cycle(draw) -> tuple[np.ndarray, set[int]]:
    """A parent array in random storage order: a random forest, a cycle of
    length 2-8 and replies below it; and the positions on or below it."""
    n = draw(st.integers(0, 30))
    parents = [-1 if i == 0 or draw(st.integers(0, 4)) == 0
               else draw(st.integers(0, i - 1)) for i in range(n)]
    k = draw(st.integers(2, 8))
    parents += [n + (j + 1) % k for j in range(k)]
    for i in range(n + k, n + k + draw(st.integers(0, 10))):
        parents.append(draw(st.integers(n, i - 1)))
    perm = draw(st.permutations(range(len(parents))))
    at = {old: new for new, old in enumerate(perm)}
    parent = np.array([-1 if parents[old] < 0 else at[parents[old]]
                       for old in perm], np.int64)
    return parent, {at[old] for old in range(n, len(parents))}


@settings(max_examples=300, deadline=None)
@given(forests_with_a_cycle())
def test_tree_arrays_marks_the_posts_on_or_below_a_cycle(case):
    parent, cyclic = case
    depth, branch_root, _ = tree_arrays(parent)
    assert set(np.flatnonzero(depth < 0).tolist()) == cyclic
    for i in set(range(len(parent))) - cyclic:
        hops, below_root, walker = 0, i, i
        while parent[walker] >= 0:
            hops, below_root, walker = hops + 1, walker, parent[walker]
        assert (depth[i], branch_root[i]) == (hops, below_root)


def test_tree_arrays_returns_on_a_three_cycle():
    depth, _, _ = tree_arrays(np.array([-1, 2, 3, 1]))
    assert depth.tolist() == [0, -1, -1, -1]
    depth, _, _ = tree_arrays(np.array([-1, 2, 1, 0]))
    assert depth.tolist() == [0, -1, -1, 1]


def test_tree_arrays_reaches_the_end_of_a_chain():
    # the longest path n posts allow needs all ceil(log2 n) doublings
    for n in range(1, 70):
        chain = np.arange(-1, n - 1)
        assert tree_arrays(chain)[0].tolist() == list(range(n))
        flipped = n - 1 - chain[::-1]      # stored leaf first
        flipped[-1] = -1
        assert tree_arrays(flipped)[0].tolist() == list(range(n - 1, -1, -1))


# any text but a lone surrogate, which the parser refuses
line_texts = st.one_of(
    st.sampled_from(['"q"', "back\\slash", "\x00\x1f\x7f", "new\nline\r\t",
                     "\u2028\u2029", "naïve – ✓", "\U0001f600", "\\u00e8", ""]),
    st.text(st.characters(codec="utf-8")))


@settings(max_examples=300, deadline=None)
@given(st.builds(Post, post_id=line_texts, discussion_id=line_texts,
                 parent_id=st.none() | line_texts,
                 author=st.none() | line_texts,
                 timestamp=st.sampled_from([0, 2 ** 63 - 1])
                 | st.integers(0, 2 ** 63 - 1),
                 text=line_texts))
def test_post_lines_match_the_json_dumps_oracle(post):
    line = post_to_json(post)
    assert line == writer_oracle.post_to_json(post)
    assert Post(**_parse_record(line, 1)) == post
