"""Property test: the row-store cache loader against the dataclass-keyed one.

``OracleCache`` is the loader and index that ``AnnotationCache`` had before
its keys became plain tuples: a frozen-dataclass key per line and
``json.loads`` per line, with one rule added: a score outside -127..127
makes its line malformed. ``AnnotationCache(path, n)`` keeps one row of
slots per (pair hash, model) for the keys a reader asks for, the
dimensions x replications 0..n-1; ``conftest.stored_scores`` rebuilds its
key -> score mapping, which must equal the oracle's keys of those
dimensions and replications, for n in 1, 2, 4 and 10. Hypothesis writes
JSONL files with blank lines,
torn final lines, ``\r\n`` and bare ``\r`` line ends, non-object JSON,
records with missing fields, non-integer replications and scores, two model
ids, duplicate keys with different scores, keys outside the slots
(unknown dimensions, negative or large replications) and scores outside
-127..127, one key written again so that its score moves between one a
slot holds and one outside -127..127 and back, and records padded with
whitespace, followed by extra data, led by a byte order mark or a near
miss of the layout ``cache_head`` + ``cache_tail`` write (which the
loader's matcher must leave to ``json.loads``), lines whose head (up to
the first ``", "dimension": ``) or tail is not one the cache writes (a
good head of the second model id with a bad tail, two separators, escaped
strings holding the separator, a head alone and then a tail alone), and
whole groups of the lines a run writes for one pair, and both loaders must
agree on the scores, the malformed-line warnings, the torn-tail flag, the
model id and pairs ``model_pairs`` reports, and the complete pairs'
scores that ``cached_pair_scores`` reads: of the whole cache when it holds
one model id, and of each model's records alone. The same files load alike
when read a few bytes at a time, and a byte that is not UTF-8 fails the
load with an AnnotationError naming its line. A record no slot takes still
lists its pair in ``model_pairs``.
The cache line writer (head plus tail) is checked against ``json.dumps`` of
the record, and each line it writes loads back to its own key and score,
or, for a key no slot takes, to its pair's empty row.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from threadtone import annotate
from threadtone.annotate import (
    AnnotationCache,
    cache_head,
    cache_tail,
    cached_pair_scores,
)
from threadtone.dimensions import DIMENSIONS, NAMES
from threadtone.errors import AmbiguousModel, AnnotationError

from conftest import stored_scores


@dataclass(frozen=True)
class OracleKey:
    pair_hash: str
    model: str
    dimension: str
    replication: int


class OracleCache:
    def __init__(self, path: Path):
        self.path = path
        self.scores: dict[OracleKey, int] = {}
        self.malformed: list[int] = []
        line = "\n"
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    key = OracleKey(rec["pair_hash"], rec["model"],
                                    rec["dimension"], int(rec["replication"]))
                    score = int(rec["score"])
                    if not -127 <= score <= 127:
                        raise ValueError(f"score {score} outside -127..127")
                    self.scores[key] = score
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self.malformed.append(line_no)
        self.torn_tail = not line.endswith("\n")

    def index_by_pair(self, n_replications: int, model: str | None = None):
        """pair_hash -> dimension -> the scores of replications 0..n-1."""
        if model is None:
            models = sorted({key.model for key in self.scores})
            if len(models) > 1:
                raise AmbiguousModel(", ".join(models))
        grouped: dict = {}
        for key, score in self.scores.items():
            if model is not None and key.model != model:
                continue
            grouped.setdefault(key.pair_hash, {}).setdefault(
                key.dimension, {})[key.replication] = score
        out: dict = {}
        for pair_hash, dims in grouped.items():
            for dim_name, reps in dims.items():
                # replications 0..n-1 present; others (5, -1) are ignored
                if set(range(n_replications)) <= set(reps):
                    out.setdefault(pair_hash, {})[dim_name] = [
                        reps[r] for r in range(n_replications)]
        return out


def oracle_pair_scores(index: dict) -> dict:
    """The oracle index's pairs that hold every dimension, as pair hash ->
    dimension-major score lists."""
    names = [d.name for d in DIMENSIONS]
    return {pair_hash: [dims[name] for name in names]
            for pair_hash, dims in index.items()
            if all(name in dims for name in names)}


def pair_scores(cache: AnnotationCache) -> dict:
    """cached_pair_scores as pair hash -> dimension-major score lists."""
    items, scores = cached_pair_scores(cache)
    assert items == sorted(items)
    return dict(zip(items, scores.tolist()))


FIELDS = ("pair_hash", "model", "dimension", "replication", "score")
MODELS = ("model-a", "model-b")

_records = st.fixed_dictionaries({
    "pair_hash": st.one_of(st.sampled_from(["p0", "p1", "p2"]),
                           st.just(["p0"])),  # unhashable: malformed
    "model": st.sampled_from(MODELS),
    "dimension": st.sampled_from([d.name for d in DIMENSIONS] + ["other"]),
    "replication": st.one_of(
        st.integers(0, 3), st.integers(0, 3), st.integers(-1, 5),
        st.sampled_from([7, 8, 9, -2**70, 2**70]),  # around the slot range
        st.sampled_from([1.0, 1.5, "2", "x", None, True, [0], {}])),
    "score": st.one_of(st.integers(-5, 5),
                       st.sampled_from([127, -127, 128, -128, 2**53]),
                       st.sampled_from([2.5, "3", "three", None])),
    "timestamp": st.integers(0, 10),
}).flatmap(lambda rec: st.sets(st.sampled_from(FIELDS), max_size=2).map(
    lambda dropped: json.dumps({k: v for k, v in rec.items()
                                if k not in dropped})))

_RECORD = json.dumps({"pair_hash": "p1", "model": "model-a",
                      "dimension": "emotional_vs_factual", "replication": 1,
                      "score": 2, "timestamp": 0})

# the loader's matcher takes a line only in the exact layout cache_head +
# cache_tail write, with strings json.loads would not unescape and integers
# it would not reject; these lines must take the json.loads path instead
_fallback_lines = st.sampled_from([
    " " + _RECORD,  # leading space: a valid record
    _RECORD + "  ",  # trailing spaces: a valid record
    _RECORD + "x",  # one stray character: malformed, or a torn last line
    _RECORD + _RECORD,  # two records on one line: malformed
    "\ufeff" + _RECORD,  # byte order mark: malformed
    _RECORD.replace('"replication": 1', '"replication": 01'),  # malformed
    _RECORD.replace('"replication": 1', '"replication": 1.0'),
    _RECORD.replace('"replication": 1', '"replication": 1e0'),
    _RECORD.replace('"replication": 1', '"replication": true'),
    _RECORD.replace('"score": 2', '"score":  2'),  # an extra space
    _RECORD.replace('"model-a"', '"mod\\u00e8le"'),  # an escape
    _RECORD.replace('"p1"', '"p\t1"'),  # a raw tab: malformed
    _RECORD.replace('"timestamp": 0', '"timestamp": ' + "9" * 5000),
    _RECORD.replace('"timestamp": 0', '"timestamp": ' + "9" * 19),
])

# lines the matcher takes: json.loads decodes them to the same values
_matched_lines = st.sampled_from([
    _RECORD.replace('"score": 2', '"score": -0'),
    _RECORD.replace('"model-a"', '"mod\u00e8le"'),  # unescaped, as read
    _RECORD.replace('"timestamp": 0', '"timestamp": ' + "9" * 18),
])

_DIM = DIMENSIONS[0].name
_HEAD_B = cache_head("p0", MODELS[1])  # a valid head of the second model id

# lines the loader cuts at their first '", "dimension": ' into a head and a
# tail, where a half fails its matcher and the line goes to json.loads
_split_lines = st.sampled_from([
    # a valid head with a tail that is not one: malformed lines, which must
    # not give the second model id a row, and one json.loads accepts
    _HEAD_B + f'"{_DIM}", "replication": "x", "score": 2, "timestamp": 0}}',
    _HEAD_B + f'"{_DIM}", "replication": 1, "score": null, "timestamp": 0}}',
    _HEAD_B + f'"{_DIM}", "replication": 1, "sc',
    _HEAD_B + f'"{_DIM}", "replication": 1.0, "score": 2, "timestamp": 0}}',
    # two separators: json.loads keeps the later dimension
    cache_head("p1", MODELS[0]) + '"other", "dimension": '
    + cache_tail(_DIM, 1, 2, 0)[:-1],
    cache_head("p1", MODELS[0]) + f'"{_DIM}", "dimension": '
    + cache_tail("other", 1, 2, 0)[:-1],
    # escaped strings that hold the separator, or end in a backslash
    *(json.dumps({**json.loads(_RECORD), field: value}) for field, value in (
        ("pair_hash", 'p1", "dimension": "q'),
        ("model", MODELS[0] + '", "dimension": "'),
        ("dimension", 'x", "dimension": "' + _DIM),
        ("pair_hash", "p1\\"), ("model", MODELS[0] + "\\"),
        ("model", MODELS[0] + '\\", "dimension": '))),
])

_other_lines = st.one_of(st.sampled_from([
    "", "   ", "\t", "[1, 2]", "3", '"text"', "null", "{not json",
    '{"pair_hash": "p0"', "}"]), _fallback_lines, _split_lines)

# a line cut in two at a separator: its head alone (with the separator or
# without), then its tail alone, both malformed
_halves = st.tuples(
    st.sampled_from([cache_head("p2", MODELS[1]),
                     cache_head("p2", MODELS[1])[:-len(annotate._SEP)]]),
    st.sampled_from(["\n", "\r\n"])).map(
    lambda half: [(half[0], half[1]), (cache_tail(_DIM, 2, 3, 0)[:-1], half[1])])

_lines = st.lists(
    st.tuples(st.one_of(_records, _records, _records, _other_lines,
                        _matched_lines),
              st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])),
    max_size=40)


# every dimension's replications 0..n-1 of one pair and model, the lines a
# run writes for a pair, so that some caches hold complete pairs
_complete_pairs = st.tuples(
    st.sampled_from(["p0", "p1", "p2"]), st.sampled_from(MODELS),
    st.sampled_from([1, 2, 3, 4, 10]), st.integers(0, 10)).map(
    lambda group: [(cache_head(group[0], group[1])
                    + cache_tail(d.name, rep,
                                 (group[3] + 3 * rep + d_index) % 11 - 5,
                                 0)[:-1], "\n")
                   for d_index, d in enumerate(DIMENSIONS)
                   for rep in range(group[2])])

# one key written two or three times, its score moving between one a slot
# holds (-127..127) and one outside, whose line is malformed
_moved_key = st.tuples(
    st.sampled_from(["p0", "p1"]), st.sampled_from(MODELS),
    st.sampled_from([d.name for d in DIMENSIONS]), st.integers(0, 7),
    st.lists(st.sampled_from([-5, 3, 127, -127, 128, -128, 10**6]),
             min_size=2, max_size=3)).map(
    lambda key: [(cache_head(key[0], key[1])
                  + cache_tail(key[2], key[3], score, 0)[:-1], "\n")
                 for score in key[4]])


@st.composite
def cache_text(draw) -> str:
    lines = draw(_lines)
    for group in draw(st.lists(_complete_pairs, max_size=2)):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = group
    for group in draw(st.lists(_halves, max_size=2)):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = group
    for moves in draw(st.lists(_moved_key, max_size=2)):
        at = 0
        for line in moves:  # in order, among the other lines
            at = draw(st.integers(at, len(lines)))
            lines.insert(at, line)
            at += 1
    text = "".join(line + end for line, end in lines)
    if lines and draw(st.booleans()):  # torn final line: cut it short
        last, end = lines[-1]
        text = text[:len(text) - len(end) - draw(st.integers(0, len(last)))]
    return text


class _Collect(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def load(path: Path, n_replications: int) -> tuple[AnnotationCache, list[str]]:
    """The cache at ``path`` and the warnings its load logged."""
    handler = _Collect()
    logger = logging.getLogger("threadtone.annotate")
    logger.addHandler(handler)
    try:
        return AnnotationCache(path, n_replications), handler.messages
    finally:
        logger.removeHandler(handler)


def assert_loads_as_the_oracle(path: Path, oracle: OracleCache,
                               n_replications: int = 4) -> AnnotationCache:
    """Load the cache at ``path`` with ``n_replications`` and check it
    against the oracle: the keys of its slots, the warnings, the torn-tail
    flag and ``model_pairs``."""
    cache, messages = load(path, n_replications)
    assert stored_scores(cache) == {
        (k.pair_hash, k.model, k.dimension, k.replication): v
        for k, v in oracle.scores.items()
        if k.dimension in NAMES and 0 <= k.replication < n_replications}
    assert messages == [f"ignoring malformed cache line {n} in {path}"
                        for n in oracle.malformed]
    assert cache._torn_tail == oracle.torn_tail
    models = sorted({k.model for k in oracle.scores})
    if len(models) > 1:
        with pytest.raises(AmbiguousModel):
            cache.model_pairs()
    else:
        assert cache.model_pairs() == (
            (models or [""])[0], sorted({k.pair_hash for k in oracle.scores}))
    return cache


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cache_text())
@example(_RECORD + "\n" + _RECORD + "x")  # torn tail: one stray character
@example(_RECORD)  # a whole record without its "\n"
@example("".join(  # one key: kept, malformed, kept, malformed (3, then 4)
    cache_head("p0", "model-a") + cache_tail(DIMENSIONS[0].name, 1, score, 0)
    for score in (3, 1000, 4, -128)))
def test_loader_matches_the_dataclass_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(text.encode("utf-8"))
        oracle = OracleCache(path)
        for n_replications in (1, 2, 4, 10):
            cache = assert_loads_as_the_oracle(path, oracle, n_replications)
            # each model's records alone, written and reloaded as a
            # one-model cache, hold the complete pairs the oracle indexes
            # for that model
            for model in MODELS:
                single = AnnotationCache(
                    Path(tmp) / f"{model}-{n_replications}.jsonl",
                    n_replications)
                for key, score in stored_scores(cache).items():
                    if key[1] == model:
                        single.put(key, score, timestamp=0)
                single.close()
                assert pair_scores(AnnotationCache(single.path, n_replications)) \
                    == oracle_pair_scores(oracle.index_by_pair(n_replications, model))
            if len({k.model for k in oracle.scores}) > 1:
                with pytest.raises(AmbiguousModel):
                    cached_pair_scores(cache)
            else:
                assert pair_scores(cache) == \
                    oracle_pair_scores(oracle.index_by_pair(n_replications))


def set_cpus(monkeypatch: pytest.MonkeyPatch, n: int) -> None:
    """Make the loader see ``n`` CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cache_text())
@example(_RECORD + "\r\n" + _RECORD + "\r")
def test_chunked_loads_match_the_oracle(text):
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as monkeypatch:
        path = Path(tmp) / "cache.jsonl"
        path.write_bytes(text.encode("utf-8"))
        oracle = OracleCache(path)
        for block_bytes in (1, 7, 64):
            monkeypatch.setattr(annotate, "_BLOCK_BYTES", block_bytes)
            for n_replications in (4, 10):
                assert_loads_as_the_oracle(path, oracle, n_replications)


def _no_fork():
    raise AssertionError("the cache was read in a forked process")


def test_pooled_loads_match_the_oracle(tmp_path, monkeypatch):
    lines = [json.dumps({"pair_hash": f"p{i % 7}", "model": "model-a",
                         "dimension": "disagree_vs_agree",
                         "replication": i % 4, "score": i % 11 - 5,
                         "timestamp": 0}) for i in range(60)]
    lines[5], lines[17], lines[40] = "{not json", "", '"text"'
    text = "".join(line + ("\r\n" if i % 3 else "\n")
                   for i, line in enumerate(lines))
    path = tmp_path / "cache.jsonl"
    path.write_bytes(text[:-9].encode("utf-8"))  # a torn tail
    oracle = OracleCache(path)
    # a cache of several blocks, with two CPUs to spare, is read in this
    # process alone
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(annotate, "_BLOCK_BYTES", 512)
    assert path.stat().st_size > 4 * annotate._BLOCK_BYTES
    assert_loads_as_the_oracle(path, oracle)

    path.write_bytes(text.encode("utf-8") + b"\xff\n")
    message = re.escape(f"cache line 61 in {path} is not UTF-8")
    with pytest.raises(AnnotationError, match=message):
        AnnotationCache(path)
    set_cpus(monkeypatch, 1)
    with pytest.raises(AnnotationError, match=message):
        AnnotationCache(path)


@pytest.mark.parametrize("block_bytes", (1, 7, 1 << 20, 64))
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, monkeypatch,
                                                 block_bytes):
    # lines 1-5 end "\n", "\r\n", "\r", "\n" and "\r"; line 6 is empty
    head = "".join(_RECORD + end for end in ("\n", "\r\n", "\r", "\n", "\r"))
    path = tmp_path / "cache.jsonl"
    path.write_bytes((head + "\r\n").encode("utf-8") + b'{"pair_hash": "\xe9"}\n'
                     + (_RECORD + "\n").encode("utf-8"))
    monkeypatch.setattr(annotate, "_BLOCK_BYTES", block_bytes)
    with pytest.raises(AnnotationError,
                       match=re.escape(f"cache line 7 in {path} is not UTF-8")):
        AnnotationCache(path)


@pytest.mark.parametrize("block_bytes", (1, 7, 64, 1 << 20))
def test_a_bad_tail_gives_its_head_no_row(tmp_path, monkeypatch, block_bytes):
    # the first model's lines, then a good head of a second model id with
    # tails that are not cache tails: malformed lines, which must not make
    # the cache hold two model ids
    good = [cache_head(f"p{k}", MODELS[0]) + cache_tail(d.name, rep, k - rep, 0)
            for k in range(3) for d in DIMENSIONS for rep in range(4)]
    bad = [_HEAD_B + tail for tail in (
        f'"{_DIM}", "replication": "x", "score": 2, "timestamp": 0}}',
        f'"{_DIM}", "replication": 1, "score": null, "timestamp": 0}}',
        f'"{_DIM}", "replication": 1, "sc')]
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(good[:20]) + "\n".join(bad) + "\n"
                    + "".join(good[20:]), encoding="utf-8")
    monkeypatch.setattr(annotate, "_BLOCK_BYTES", block_bytes)
    cache = assert_loads_as_the_oracle(path, OracleCache(path))
    assert cache.model_pairs() == (MODELS[0], ["p0", "p1", "p2"])
    assert len(cached_pair_scores(cache)[0]) == 3
    # a good tail no slot takes still makes its pair's row, and so the
    # model id
    with path.open("a", encoding="utf-8") as fh:
        fh.write(_HEAD_B + cache_tail("other", 1, 2, 0))
    with pytest.raises(AmbiguousModel):
        assert_loads_as_the_oracle(path, OracleCache(path)).model_pairs()


def assert_the_line_is_refused(tmp_path, caplog, score):
    """A pair's line scored ``score`` is warned by number and skipped, so
    the pair lacks that score; +-127 are kept in its place."""
    lines = [cache_head(p, "m") + cache_tail(d.name, rep, 1, 0)
             for p in ("p0", "p1") for d in DIMENSIONS for rep in range(4)]
    lines[5] = cache_head("p0", "m") + cache_tail(DIMENSIONS[1].name, 1, score, 0)
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(lines), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="threadtone.annotate"):
        cache = AnnotationCache(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"ignoring malformed cache line 6 in {path}"]
    assert cache.get(("p0", "m", DIMENSIONS[1].name, 1)) is None
    assert cache.model_pairs() == ("m", ["p0", "p1"])
    items, scores = cached_pair_scores(cache)
    assert items == ["p1"] and (scores == 1).all()
    for kept in (127, -127):
        lines[5] = cache_head("p0", "m") + cache_tail(DIMENSIONS[1].name, 1, kept, 0)
        path.write_text("".join(lines), encoding="utf-8")
        items, scores = cached_pair_scores(AnnotationCache(path))
        assert items == ["p0", "p1"] and scores[0, 1, 1] == kept


@pytest.mark.parametrize("score", (10**30, 2**53 + 1, -2**53 - 1))
def test_a_score_a_float64_cannot_hold_is_refused(tmp_path, caplog, score):
    # such a score used to be kept apart and then stop the read; like any
    # score outside -127..127, its line is now malformed
    assert_the_line_is_refused(tmp_path, caplog, score)


@pytest.mark.parametrize("score", (128, -128, 2**53))
def test_a_score_an_int8_slot_cannot_hold_is_refused(tmp_path, caplog, score):
    assert_the_line_is_refused(tmp_path, caplog, score)


@pytest.mark.parametrize("n_replications", (1, 4, 10))
@pytest.mark.parametrize("dimension, replication", (
    ("other", 0), (DIMENSIONS[0].name, -1), (DIMENSIONS[0].name, None)))
def test_a_record_no_slot_takes_still_lists_its_pair(tmp_path, n_replications,
                                                     dimension, replication):
    # replication None stands for n, the first one a slot does not take
    replication = n_replications if replication is None else replication
    path = tmp_path / "cache.jsonl"
    path.write_text(cache_head("p0", MODELS[0])
                    + cache_tail(dimension, replication, 3, 0), encoding="utf-8")
    cache = AnnotationCache(path, n_replications)
    assert cache.model_pairs() == (MODELS[0], ["p0"])
    assert stored_scores(cache) == {}
    assert cached_pair_scores(cache)[0] == []
    assert cache.get(("p0", MODELS[0], dimension, replication)) is None
    # across two models it is still ambiguous
    with path.open("a", encoding="utf-8") as fh:
        fh.write(cache_head("p1", MODELS[1]) + cache_tail(DIMENSIONS[0].name, 0, 1, 0))
    with pytest.raises(AmbiguousModel):
        AnnotationCache(path, n_replications).model_pairs()


def test_an_overflowing_replication_is_a_malformed_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    good = {"pair_hash": "p", "model": "m", "dimension": DIMENSIONS[0].name,
            "replication": 0, "score": 1, "timestamp": 0}
    path.write_text(
        json.dumps({**good, "replication": float("inf")}) + "\n"
        + json.dumps({**good, "score": float("-inf")}) + "\n"
        + json.dumps(good) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="threadtone.annotate"):
        cache = AnnotationCache(path)
    assert stored_scores(cache) == {("p", "m", DIMENSIONS[0].name, 0): 1}
    assert [r.getMessage() for r in caplog.records] == [
        f"ignoring malformed cache line {n} in {path}" for n in (1, 2)]


line_strings = st.one_of(
    st.sampled_from(['m"q', "back\\slash", "new\nline", "modèle", "\u2028",
                     "\U0001f600", "\x00\x1f\x7f", ""]),
    st.text())


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(["p0"]), line_strings),
       st.one_of(st.sampled_from(["m"]), line_strings),
       st.one_of(st.sampled_from(NAMES), line_strings),
       st.one_of(st.integers(-1, 4), st.integers()),
       st.one_of(st.integers(-128, 128), st.integers()),
       st.integers())
def test_cache_line_matches_json_dumps(pair_hash, model, dimension,
                                       replication, score, timestamp):
    record = {"pair_hash": pair_hash, "model": model, "dimension": dimension,
              "replication": replication, "score": score,
              "timestamp": timestamp}
    expected = json.dumps(record) + "\n"
    assert (cache_head(pair_hash, model)
            + cache_tail(dimension, replication, score, timestamp)) == expected
    with tempfile.TemporaryDirectory() as tmp:
        cache = AnnotationCache(Path(tmp) / "cache.jsonl")
        key = (pair_hash, model, dimension, replication)
        kept = dimension in NAMES and 0 <= replication < 4  # a slot takes it
        if not kept or not -127 <= score <= 127:  # refused, nothing written
            with pytest.raises(ValueError, match="outside -127..127" if kept
                               else "no score slot"):
                cache.put(key, score, timestamp)
            assert not cache.path.exists() and cache.model_pairs() == ("", [])
            return
        cache.put(key, score, timestamp)
        cache.close()
        assert cache.path.read_text(encoding="utf-8") == expected
        reloaded = AnnotationCache(cache.path)
        assert stored_scores(reloaded) == {key: score}
        assert reloaded.model_pairs() == (model, [pair_hash])
