"""Threaded-discussion corpus: line-delimited JSON parsed into columns.

The interchange format is one UTF-8 JSON object per line with exactly the
fields ``post_id, discussion_id, parent_id (nullable), author (nullable),
timestamp, text``. Each discussion must form a single rooted reply tree;
sibling order is (timestamp, post_id), so parsing is fully deterministic
even under timestamp ties. A parsed corpus is a ``PostArrays`` and the
posts' texts in that order; ``tree_arrays`` derives every structure from
the parent positions. Parsing collects every violation in one pass:
``load_corpus`` raises the first, ``validate_corpus`` returns them all as
diagnostic lines. ``Post``, ``DiscussionTree`` and ``Corpus`` are only what
``save_corpus`` writes, a generated corpus.
"""

from __future__ import annotations

import json
import logging
import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat
from json.encoder import encode_basestring as _quote
from operator import itemgetter
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
# A line in the layout post_to_json writes, when json.loads would decode it
# as it stands and _parse_record accept it: strings without escapes, control
# characters or surrogates (a byte that is not UTF-8 reads as one), and a
# plain integer timestamp below 10**18. Its fields are the groups, and
# _FIELDS takes the same fields from a record _parse_record returns.
_CHARS = r'[^"\\\x00-\x1f\ud800-\udfff]*'
_EXACT = re.compile(
    rf'\{{"post_id": "({_CHARS})", "discussion_id": "({_CHARS})", '
    rf'"parent_id": (?:null|"({_CHARS})"), "author": (?:null|"{_CHARS}"), '
    rf'"timestamp": (0|[1-9][0-9]{{0,17}}), "text": "({_CHARS})"\}}\n?')
_FIELDS = itemgetter("post_id", "discussion_id", "parent_id", "timestamp", "text")


@dataclass(frozen=True)
class Post:
    post_id: str
    discussion_id: str
    parent_id: str | None
    author: str | None
    timestamp: int
    text: str


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


def _violation(discussion_id: str, posts: list[tuple], order: list[str],
               depth: list[int]) -> CorpusError | None:
    """The first structural violation of one discussion, if any, from its
    posts in input order and their ids and depths in ``order``: several
    roots, a parent outside the discussion, no root, or posts that reach no
    root (a post set with no root necessarily contains a cycle)."""
    roots = sorted(post_id for _, post_id, parent_id, _ in posts if parent_id is None)
    if len(roots) > 1:
        return MultipleRoots(f"{len(roots)} roots: {', '.join(roots)}",
                             discussion_id=discussion_id)
    ids = set(order)
    for _, post_id, parent_id, _ in posts:
        if parent_id is not None and parent_id not in ids:
            return OrphanPost(f"parent {parent_id!r} not found",
                              discussion_id=discussion_id, post_id=post_id)
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


def _parse_record(raw: str, line_no: int) -> dict:
    """The line's record, the JSON object checked field by field."""
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

    # an error names an id only if it is a string
    post_id, discussion_id = (value if isinstance(value := obj.get(name), str)
                              else None for name in ("post_id", "discussion_id"))
    extra = set(obj) - set(RECORD_FIELDS)
    if extra:
        raise MalformedRecord(f"unexpected fields {sorted(extra)}", line_no=line_no,
                              post_id=post_id)
    missing = [f for f in RECORD_FIELDS if f not in obj and f != "timestamp"]
    if missing:
        raise MalformedRecord(f"missing fields {missing}", line_no=line_no,
                              post_id=post_id)
    if "timestamp" not in obj or obj["timestamp"] is None:
        raise MissingTimestamp("timestamp absent", line_no=line_no,
                               post_id=post_id, discussion_id=discussion_id)

    parent_id, author = obj["parent_id"], obj["author"]
    timestamp, text = obj["timestamp"], obj["text"]
    if post_id is None or discussion_id is None:
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
    return obj


def parse_corpus(source: IO[str] | IO[bytes] | Iterable[str],
                 ) -> tuple[PostArrays, list[str], list[CorpusError]]:
    """Parse line-delimited JSON posts into the valid discussions' arrays,
    their posts' texts in the same order, and every violation, in one pass
    over the lines.

    A line that ``_EXACT`` matches is read from its groups, any other
    (every line holding a backslash among them) by ``_parse_record``. A
    line that is not UTF-8 or not JSON is dropped on its own; any other
    violation drops its whole discussion (a repeated id both). The errors
    are the lines' in line order, then each remaining discussion's first
    structural violation in discussion id order.
    """
    errors: list[CorpusError] = []
    # each discussion's posts as (timestamp, post_id, parent_id, text), so
    # that they sort in sibling order
    by_discussion: dict[str, list[tuple]] = defaultdict(list)
    seen_ids: dict[str, str] = {}
    dropped: set[str] = set()

    exact = _EXACT.fullmatch
    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        # a line holding an escape cannot match, and the pattern would fail
        # on it only after backtracking over its text: skip the scan
        if "\\" not in raw and (match := exact(raw)):
            post_id, discussion_id, parent_id, timestamp, text = match.groups()
            timestamp = int(timestamp)
        elif not raw.strip():
            continue
        else:
            try:
                rec = _parse_record(raw, line_no)
            except CorpusError as err:
                errors.append(err)
                if err.discussion_id is not None:
                    dropped.add(err.discussion_id)
                continue
            post_id, discussion_id, parent_id, timestamp, text = _FIELDS(rec)
        if post_id in seen_ids:
            errors.append(DuplicateId(
                f"post id {post_id!r} already used in discussion "
                f"{seen_ids[post_id]!r}",
                discussion_id=discussion_id, post_id=post_id, line_no=line_no))
            dropped.update((discussion_id, seen_ids[post_id]))
            continue
        seen_ids[post_id] = discussion_id
        by_discussion[discussion_id].append((timestamp, post_id, parent_id, text))

    # the remaining discussions in id order, each one's posts in
    # (timestamp, post_id) order; a parent in another discussion, or in
    # none, makes only the child's discussion invalid, as _violation reports
    kept = [did for did in sorted(by_discussion) if did not in dropped]
    groups = [by_discussion[did] for did in kept]
    ordered = [post for group in groups for post in sorted(group)]
    stamps, ids, parent_ids, texts = zip(*ordered) if ordered else [()] * 4
    at = dict(zip(ids, range(len(ids))))
    parent = np.fromiter(map(at.get, parent_ids, repeat(-1)), np.int64, len(ids))
    depth = tree_arrays(parent)[0].tolist()
    bounds = np.cumsum([0] + [len(group) for group in groups]).tolist()
    found = [_violation(did, group, ids[a:b], depth[a:b])
             for did, group, a, b in zip(kept, groups, bounds, bounds[1:])]
    errors += [err for err in found if err is not None]

    # drop the invalid discussions: a valid one's parents all lie inside
    # it, so they shift by the posts dropped before it, as it does
    valid = np.array([err is None for err in found], bool)
    sizes = np.diff(bounds)
    keep = np.repeat(valid, sizes)
    parent = np.where(parent < 0, parent, parent - np.cumsum(~keep))[keep]
    keep = keep.tolist()
    posts = PostArrays(tuple(compress(ids, keep)), tuple(compress(kept, valid)),
                       np.r_[0, np.cumsum(sizes[valid])], parent,
                       np.array(list(compress(stamps, keep)), np.int64))
    return posts, list(compress(texts, keep)), errors


def _parse_file(path: str | Path) -> tuple[PostArrays, list[str], list[CorpusError]]:
    # undecodable bytes pass as lone surrogates, which _parse_record reports
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_corpus(fh)


def load_corpus(path: str | Path) -> tuple[PostArrays, list[str]]:
    """Parse an interchange file into its arrays and texts; raises its
    first violation."""
    posts, texts, errors = _parse_file(path)
    if errors:
        raise errors[0]
    return posts, texts


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
                    ) -> tuple[PostArrays, list[str], list[str]]:
    """Parse an interchange file, collecting every violation: the valid
    discussions' arrays and texts, and one diagnostic line per violation,
    each logged once unless ``log_diagnostics`` is false (the caller prints
    them)."""
    posts, texts, errors = _parse_file(path)
    diagnostics = [err.diagnostic() for err in errors]
    if log_diagnostics:
        for line in diagnostics:
            log.warning("%s", line)
    return posts, texts, diagnostics
