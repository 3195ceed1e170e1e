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
"""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from threadtone.corpus import (
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


@settings(max_examples=400, deadline=None)
@given(corpus_lines())
def test_parse_corpus_matches_oracle(lines):
    text = "\n".join(lines) + "\n"
    posts, texts, errors = parse_corpus(io.StringIO(text))
    try:
        corpus_oracle.parse_corpus(io.StringIO(text))
    except CorpusError as err:
        assert fields(errors[0]) == fields(err)
    else:
        assert errors == []
    diagnostics: list[str] = []
    oracle = corpus_oracle.parse_corpus(io.StringIO(text), lenient=True,
                                        diagnostics=diagnostics)
    assert [err.diagnostic() for err in errors] == diagnostics
    assert columns(posts, texts) == oracle_columns(*oracle)


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
