"""Reference implementations of the corpus and cache line writers.

Before the writers formatted their lines from columns, ``post_to_json``
built a record dict per post and passed it to ``json.dumps(...,
ensure_ascii=False)``, and ``write_cache_records`` wrote one
``cache_line(**record)`` per record dict, each line formatted on its own.
They are kept as the oracle that ``threadtone.corpus.post_to_json``,
``threadtone.annotate.cache_head`` / ``cache_tail`` and
``threadtone.synth.write_cache_records`` must match byte for byte.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _json_quote
from pathlib import Path
from typing import Iterable

from threadtone.corpus import RECORD_FIELDS, Post


def post_to_json(post: Post) -> str:
    record = {field: getattr(post, field) for field in RECORD_FIELDS}
    return json.dumps(record, ensure_ascii=False)


def cache_line(pair_hash: str, model: str, dimension: str, replication: int,
               score: int, timestamp: int) -> str:
    """One cache record as its JSONL line: the bytes ``json.dumps`` writes
    for the record dict, formatted directly."""
    return (f'{{"pair_hash": {_json_quote(pair_hash)}, "model": '
            f'{_json_quote(model)}, "dimension": {_json_quote(dimension)}, '
            f'"replication": {replication}, "score": {score}, '
            f'"timestamp": {timestamp}}}\n')


def write_cache_records(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(cache_line(**record) for record in records)
