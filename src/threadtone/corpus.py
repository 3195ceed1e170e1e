"""Threaded-discussion corpus: line-delimited JSON parsing and reply trees.

The interchange format is one UTF-8 JSON object per line with exactly the
fields ``post_id, discussion_id, parent_id (nullable), author (nullable),
timestamp, text``. Each discussion must form a single rooted reply tree;
sibling order is (timestamp, post_id), so parsing is fully deterministic
even under timestamp ties. A ``DiscussionTree`` is the post ids in that
order and each post's depth; ``tree_arrays`` derives every structure, for
the trees as for the features, from the posts' parent positions. Parsing
collects every violation in one pass: ``load_corpus`` raises the first,
``validate_corpus`` returns them all as diagnostic lines.
"""

from __future__ import annotations

import json
import logging
import re
from collections import defaultdict
from dataclasses import dataclass
from json.encoder import encode_basestring as _quote
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    CorpusError,
    CycleDetected,
    DuplicateId,
    MalformedRecord,
    MissingTimestamp,
    MultipleRoots,
    OrphanPost,
)

log = logging.getLogger(__name__)

RECORD_FIELDS = ("post_id", "discussion_id", "parent_id", "author", "timestamp", "text")
_SURROGATE = re.compile("[\ud800-\udfff]")


@dataclass(frozen=True)
class Post:
    post_id: str
    discussion_id: str
    parent_id: str | None
    author: str | None
    timestamp: int
    text: str

    def order_key(self) -> tuple[int, str]:
        return (self.timestamp, self.post_id)


@dataclass(frozen=True)
class DiscussionTree:
    discussion_id: str
    depth: dict[str, int]  # post id -> depth (0 for the root), in ``order``
    order: tuple[str, ...]  # post ids in (timestamp, post_id) order


@dataclass(frozen=True)
class Corpus:
    discussions: dict[str, DiscussionTree]
    posts: dict[str, Post]

    def discussion_ids(self) -> list[str]:
        return sorted(self.discussions)

    def arrays(self) -> "PostArrays":
        """The posts as flat arrays, in each tree's ``order``."""
        trees = [self.discussions[d] for d in self.discussion_ids()]
        ids = [post_id for tree in trees for post_id in tree.order]
        at = {post_id: i for i, post_id in enumerate(ids)}
        posts = [self.posts[post_id] for post_id in ids]
        return PostArrays(
            tuple(ids), tuple(self.discussion_ids()),
            np.cumsum([0] + [len(tree.order) for tree in trees]),
            np.array([at.get(post.parent_id, -1) for post in posts], np.int64),
            np.array([post.timestamp for post in posts], np.int64))


@dataclass(frozen=True, eq=False)
class PostArrays:
    """The posts as flat arrays: discussions in id order, each one's posts
    in (timestamp, post_id) order from position ``starts[k]`` (the total
    appended), with each post's parent position (-1 for a root) and int64
    timestamp. ``tree_arrays`` derives the rest of the structure."""
    posts: tuple[str, ...]
    discussion_ids: tuple[str, ...]
    starts: np.ndarray
    parent: np.ndarray
    timestamp: np.ndarray


def tree_arrays(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth, branch root (the depth-1 ancestor; a root is its own) and
    older-sibling rank (earlier positions with the same parent) of every
    post of a forest, from each post's parent position (-1 for a root). The
    pointer doubling lets a parent be stored after its child and stops after
    ceil(log2 n) + 1 steps; a post on or below a parent cycle reaches no
    root, and its depth is -1."""
    index = np.arange(len(parent))
    root = parent < 0
    up = np.where(root, index, parent)              # a root points to itself
    own = root[up]                                  # roots and depth 1
    branch_root = np.where(own, index, up)
    depth = (~own).astype(np.int64)                 # hops to ``branch_root``
    for _ in range((len(parent) - 1).bit_length() + 1):
        hop = branch_root[branch_root]
        if np.array_equal(hop, branch_root):
            break
        depth += depth[branch_root]
        branch_root = hop
    depth += ~root
    depth[~own[branch_root]] = -1
    order = np.argsort(parent, kind="stable")
    grouped = parent[order]
    first = np.r_[True, grouped[1:] != grouped[:-1]]
    rank = np.empty_like(parent)
    rank[order] = index - np.maximum.accumulate(np.where(first, index, 0))
    return depth, branch_root, rank


def _violation(discussion_id: str, posts: list[Post], order: tuple[str, ...],
               depth: list[int]) -> CorpusError | None:
    """The first structural violation of one discussion, if any, from its
    posts in input order and their ids and depths in ``order``: several
    roots, a parent outside the discussion, no root, or posts that reach no
    root (a post set with no root necessarily contains a cycle)."""
    roots = sorted(post.post_id for post in posts if post.parent_id is None)
    if len(roots) > 1:
        return MultipleRoots(f"{len(roots)} roots: {', '.join(roots)}",
                             discussion_id=discussion_id)
    ids = set(order)
    for post in posts:
        if post.parent_id is not None and post.parent_id not in ids:
            return OrphanPost(f"parent {post.parent_id!r} not found",
                              discussion_id=discussion_id, post_id=post.post_id)
    if not roots:
        return CycleDetected("no root post; parent links form a cycle",
                             discussion_id=discussion_id)
    unreachable = sorted(pid for pid, d in zip(order, depth) if d < 0)
    if unreachable:
        return CycleDetected(
            f"{len(unreachable)} posts unreachable from root (cycle): "
            f"{', '.join(unreachable[:5])}",
            discussion_id=discussion_id, post_id=unreachable[0])
    return None


def _parse_record(raw: str, line_no: int) -> Post:
    if not raw.isascii():
        try:
            raw.encode("utf-8")
        except UnicodeEncodeError as exc:  # a byte read as a lone surrogate
            raise MalformedRecord(
                f"invalid UTF-8 byte 0x{ord(raw[exc.start]) & 0xFF:02x} at "
                f"character {exc.start + 1}", line_no=line_no) from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON ({exc.msg})", line_no=line_no) from None
    if not isinstance(obj, dict):
        raise MalformedRecord("record is not a JSON object", line_no=line_no)
    if "\\u" in raw:  # an escape may decode to a lone surrogate, which
        for name in RECORD_FIELDS:  # has no UTF-8 to hash or write
            value = obj.get(name)
            if isinstance(value, str) and (lone := _SURROGATE.search(value)):
                raise MalformedRecord(f"{name} holds a lone surrogate "
                                      f"{ascii(lone.group())}", line_no=line_no)

    extra = set(obj) - set(RECORD_FIELDS)
    if extra:
        raise MalformedRecord(f"unexpected fields {sorted(extra)}", line_no=line_no,
                              post_id=obj.get("post_id"))
    missing = [f for f in RECORD_FIELDS if f not in obj and f != "timestamp"]
    if missing:
        raise MalformedRecord(f"missing fields {missing}", line_no=line_no,
                              post_id=obj.get("post_id"))
    if "timestamp" not in obj or obj["timestamp"] is None:
        raise MissingTimestamp("timestamp absent", line_no=line_no,
                               post_id=obj.get("post_id"),
                               discussion_id=obj.get("discussion_id"))

    post_id, discussion_id = obj["post_id"], obj["discussion_id"]
    parent_id, author = obj["parent_id"], obj["author"]
    timestamp, text = obj["timestamp"], obj["text"]
    if not isinstance(post_id, str) or not isinstance(discussion_id, str):
        raise MalformedRecord("post_id and discussion_id must be strings",
                              line_no=line_no)
    if parent_id is not None and not isinstance(parent_id, str):
        raise MalformedRecord("parent_id must be a string or null",
                              line_no=line_no, post_id=post_id)
    if author is not None and not isinstance(author, str):
        raise MalformedRecord("author must be a string or null",
                              line_no=line_no, post_id=post_id)
    if isinstance(timestamp, bool) or not isinstance(timestamp, int):
        raise MalformedRecord("timestamp must be an integer (epoch seconds)",
                              line_no=line_no, post_id=post_id,
                              discussion_id=discussion_id)
    if not 0 <= timestamp < 2 ** 63:   # the features take int64 seconds
        raise MalformedRecord("timestamp must be non-negative and below 2**63",
                              line_no=line_no, post_id=post_id,
                              discussion_id=discussion_id)
    if not isinstance(text, str):
        raise MalformedRecord("text must be a string", line_no=line_no,
                              post_id=post_id, discussion_id=discussion_id)
    return Post(post_id=post_id, discussion_id=discussion_id, parent_id=parent_id,
                author=author, timestamp=timestamp, text=text)


def parse_corpus(source: IO[str] | IO[bytes] | Iterable[str],
                 ) -> tuple[Corpus, list[CorpusError]]:
    """Parse line-delimited JSON posts into the valid discussions and every
    violation, in one pass over the lines.

    A line that is not UTF-8 or not JSON is dropped on its own; any other
    violation drops its whole discussion (a repeated id both). The errors
    are the lines' in line order, then each remaining discussion's first
    structural violation in discussion id order.
    """
    errors: list[CorpusError] = []
    by_discussion: dict[str, list[Post]] = defaultdict(list)
    seen_ids: dict[str, str] = {}
    dropped: set[str] = set()

    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        if not raw.strip():
            continue
        try:
            post = _parse_record(raw, line_no)
        except CorpusError as err:
            errors.append(err)
            if err.discussion_id is not None:
                dropped.add(err.discussion_id)
            continue
        if post.post_id in seen_ids:
            errors.append(DuplicateId(
                f"post id {post.post_id!r} already used in discussion "
                f"{seen_ids[post.post_id]!r}",
                discussion_id=post.discussion_id, post_id=post.post_id,
                line_no=line_no))
            dropped.update((post.discussion_id, seen_ids[post.post_id]))
            continue
        seen_ids[post.post_id] = post.discussion_id
        by_discussion[post.discussion_id].append(post)

    # the remaining discussions in id order, each one's posts in
    # (timestamp, post_id) order; a parent in another discussion, or in
    # none, makes only the child's discussion invalid, as _violation reports
    kept = [did for did in sorted(by_discussion) if did not in dropped]
    groups = [by_discussion[did] for did in kept]
    ordered = [post for group in groups
               for post in sorted(group, key=Post.order_key)]
    ids = tuple(post.post_id for post in ordered)
    at = {post_id: i for i, post_id in enumerate(ids)}
    depth = tree_arrays(np.array([at.get(post.parent_id, -1) for post in ordered],
                                 np.int64))[0].tolist()
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()

    discussions: dict[str, DiscussionTree] = {}
    posts: dict[str, Post] = {}
    for did, group, a, b in zip(kept, groups, bounds, bounds[1:]):
        err = _violation(did, group, ids[a:b], depth[a:b])
        if err is not None:
            errors.append(err)
            continue
        discussions[did] = DiscussionTree(did, dict(zip(ids[a:b], depth[a:b])),
                                          ids[a:b])
        posts.update((post.post_id, post) for post in group)
    return Corpus(discussions=discussions, posts=posts), errors


def _parse_file(path: str | Path) -> tuple[Corpus, list[CorpusError]]:
    # undecodable bytes pass as lone surrogates, which _parse_record reports
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_corpus(fh)


def load_corpus(path: str | Path) -> Corpus:
    """Parse an interchange file; raises its first violation."""
    corpus, errors = _parse_file(path)
    if errors:
        raise errors[0]
    return corpus


def post_to_json(post: Post) -> str:
    """The bytes ``json.dumps(record, ensure_ascii=False)`` writes."""
    parent = "null" if post.parent_id is None else _quote(post.parent_id)
    author = "null" if post.author is None else _quote(post.author)
    return (f'{{"post_id": {_quote(post.post_id)}, "discussion_id": '
            f'{_quote(post.discussion_id)}, "parent_id": {parent}, '
            f'"author": {author}, "timestamp": {post.timestamp}, '
            f'"text": {_quote(post.text)}}}')


def serialize_corpus(corpus: Corpus) -> Iterator[str]:
    """Emit interchange lines in deterministic (discussion, time, id) order."""
    for discussion_id in corpus.discussion_ids():
        for post_id in corpus.discussions[discussion_id].order:
            yield post_to_json(corpus.posts[post_id])


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in serialize_corpus(corpus))


def validate_corpus(path: str | Path, log_diagnostics: bool = True,
                    ) -> tuple[Corpus, list[str]]:
    """Parse an interchange file, collecting every violation: the valid
    discussions and one diagnostic line per violation, each logged once
    unless ``log_diagnostics`` is false (the caller prints them)."""
    corpus, errors = _parse_file(path)
    diagnostics = [err.diagnostic() for err in errors]
    if log_diagnostics:
        for line in diagnostics:
            log.warning("%s", line)
    return corpus, diagnostics
