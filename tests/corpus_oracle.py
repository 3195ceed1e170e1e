"""Reference implementations of the reply-tree builder and the parser.

``build_tree`` is the original breadth-first tree builder: it walks each
discussion from its root through per-parent child lists and records every
post's depth, its branch root (the depth-1 ancestor) and its children in
(timestamp, post_id) order. ``parse_corpus`` is the original two-mode
parser, which reads the lines and then builds each discussion's tree on its
own, into ``Post`` objects and trees. They are kept as the oracle that
``threadtone.corpus.parse_corpus`` and ``tree_arrays`` must match: the same
first error (type, message and fields) in strict mode; in lenient mode the
same diagnostics in the same order, and the same posts, in each tree's
``order``, with the same ``depth``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import IO, Iterable

from threadtone.corpus import Post, _parse_record
from threadtone.errors import (
    CorpusError,
    CycleDetected,
    DuplicateId,
    MultipleRoots,
    OrphanPost,
)


@dataclass(frozen=True)
class OracleTree:
    discussion_id: str
    root_id: str
    children: dict[str, tuple[str, ...]]
    depth: dict[str, int]  # in breadth-first order from the root
    branch_root_of: dict[str, str]
    order: tuple[str, ...]  # post ids in (timestamp, post_id) order


def build_tree(posts: Iterable[Post]) -> OracleTree:
    """Assemble one discussion's posts into a validated reply tree.

    Raises MultipleRoots, OrphanPost or CycleDetected on structural
    violations; a post set with no root necessarily contains a cycle.
    """
    posts = list(posts)
    if not posts:
        raise CorpusError("empty discussion")
    discussion_id = posts[0].discussion_id
    by_id = {}
    for post in posts:
        if post.discussion_id != discussion_id:
            raise CorpusError(
                f"mixed discussion ids {discussion_id!r} and {post.discussion_id!r}",
                discussion_id=discussion_id, post_id=post.post_id)
        if post.post_id in by_id:
            raise DuplicateId(f"post id {post.post_id!r} repeated",
                              discussion_id=discussion_id, post_id=post.post_id)
        by_id[post.post_id] = post

    roots = [p for p in posts if p.parent_id is None]
    if len(roots) > 1:
        raise MultipleRoots(
            f"{len(roots)} roots: {', '.join(sorted(p.post_id for p in roots))}",
            discussion_id=discussion_id)
    for post in posts:
        if post.parent_id is not None and post.parent_id not in by_id:
            raise OrphanPost(f"parent {post.parent_id!r} not found",
                             discussion_id=discussion_id, post_id=post.post_id)
    if not roots:
        raise CycleDetected("no root post; parent links form a cycle",
                            discussion_id=discussion_id)
    root = roots[0]

    ordered = sorted(posts, key=lambda post: (post.timestamp, post.post_id))
    child_lists: dict[str, list[str]] = defaultdict(list)
    for post in ordered:
        if post.parent_id is not None:
            child_lists[post.parent_id].append(post.post_id)

    depth: dict[str, int] = {root.post_id: 0}
    branch_root_of: dict[str, str] = {}
    queue = deque([root.post_id])
    while queue:
        pid = queue.popleft()
        for child in child_lists.get(pid, ()):
            depth[child] = depth[pid] + 1
            branch_root_of[child] = child if depth[child] == 1 else branch_root_of[pid]
            queue.append(child)
    if len(depth) != len(posts):
        unreachable = sorted(set(by_id) - set(depth))
        raise CycleDetected(
            f"{len(unreachable)} posts unreachable from root (cycle): "
            f"{', '.join(unreachable[:5])}",
            discussion_id=discussion_id, post_id=unreachable[0])

    return OracleTree(
        discussion_id=discussion_id,
        root_id=root.post_id,
        children={pid: tuple(kids) for pid, kids in child_lists.items()},
        depth=depth,
        branch_root_of=branch_root_of,
        order=tuple(post.post_id for post in ordered),
    )


def oracle_trees(posts: Iterable[Post]) -> dict[str, OracleTree]:
    """The oracle's tree of every discussion of a corpus's posts, in id
    order."""
    by_discussion: dict[str, list[Post]] = defaultdict(list)
    for post in posts:
        by_discussion[post.discussion_id].append(post)
    return {did: build_tree(by_discussion[did]) for did in sorted(by_discussion)}


def parse_corpus(source: IO[str] | IO[bytes] | Iterable[str],
                 lenient: bool = False,
                 diagnostics: list[str] | None = None,
                 ) -> tuple[dict[str, OracleTree], dict[str, Post]]:
    """Parse line-delimited JSON posts into the ``OracleTree`` of every
    valid discussion, in id order, and their posts by id.

    In strict mode (default) the first structural violation raises. In
    lenient mode, violations are recorded in ``diagnostics`` (if given) and
    the offending discussion is dropped; unattributable lines (not UTF-8,
    bad JSON) are dropped individually.
    """
    def note(err: CorpusError) -> None:
        if diagnostics is not None:
            diagnostics.append(err.diagnostic())

    by_discussion: dict[str, list[Post]] = defaultdict(list)
    seen_ids: dict[str, str] = {}
    dropped: set[str] = set()

    for line_no, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8", "surrogateescape")
        if not raw.strip():
            continue
        try:
            post = Post(**_parse_record(raw, line_no))
        except CorpusError as err:
            if not lenient:
                raise
            note(err)
            if err.discussion_id is not None:
                dropped.add(err.discussion_id)
            continue
        if post.post_id in seen_ids:
            err = DuplicateId(
                f"post id {post.post_id!r} already used in discussion "
                f"{seen_ids[post.post_id]!r}",
                discussion_id=post.discussion_id, post_id=post.post_id,
                line_no=line_no)
            if not lenient:
                raise err
            note(err)
            dropped.add(post.discussion_id)
            dropped.add(seen_ids[post.post_id])
            continue
        seen_ids[post.post_id] = post.discussion_id
        by_discussion[post.discussion_id].append(post)

    discussions: dict[str, OracleTree] = {}
    posts: dict[str, Post] = {}
    for discussion_id in sorted(by_discussion):
        if discussion_id in dropped:
            continue
        group = by_discussion[discussion_id]
        try:
            tree = build_tree(group)
        except CorpusError as err:
            if not lenient:
                raise
            note(err)
            continue
        discussions[discussion_id] = tree
        for post in group:
            posts[post.post_id] = post

    return discussions, posts
