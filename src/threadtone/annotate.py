"""Replicated, schema-constrained annotation of parent-child post pairs.

Each distinct (parent, child) pair is scored N times by a chat-style
backend; every request is an isolated conversation carrying only the two
posts, and each response must be a single JSON object with exactly one
integer per dimension. Scores are written through to an append-only JSONL
cache, one line per 4-tuple (content hash of parent+child+scale, model id,
dimension, replication), and held in memory as one row of score slots per
(pair hash, model id). The hash names the pair everywhere: replies sharing
it are annotated once, agreement and the manifest key items by it, and
every reader takes its pairs' scores in one bulk read,
``AnnotationCache.scores`` (NaN where missing). Only the pairs
missing a score go on to the backend: a fully cached pair builds no prompt
and makes no request, and a replication missing a dimension is requested
again, with its cached dimensions keeping their stored scores.
``annotate_pair`` counts the requests it sends and ``annotate_corpus``
sums them (``Annotations.requests``); a backend only sends them. A
deterministic offline mock backend stands in for the live service.

The HTTP backend speaks HTTP/1.1 through the standard library's
``http.client``, one keep-alive connection per worker thread. It reads the
proxy, ``NO_PROXY`` and CA bundle settings from the environment once, when
it is built, and follows no redirects. It never reads ``~/.netrc``: its
only credential is the bearer token in the environment variable named by
``--api-key-env``.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import ipaddress
import json
import logging
import math
import os
import re
import ssl
import threading
import urllib.parse
import urllib.request
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_quote
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from . import __version__
from .corpus import PostArrays
from .dimensions import DIMENSIONS, NAMES, AnnotationScale
from .errors import (
    AmbiguousModel,
    AnnotationError,
    AnnotationFailed,
    AnnotationParseError,
    BackendError,
    EmptyText,
    ExtraKey,
    MissingKey,
    NonInteger,
    NotJson,
    OutOfRange,
)

log = logging.getLogger(__name__)

MOCK_MODEL_ID = "mock"
EFFORT, VERBOSITY = "high", "low"  # what every HTTP request body asks for


# --- prompt construction -------------------------------------------------------

@dataclass(frozen=True)
class Prompt:
    system: str
    user: str
    parent_text: str
    child_text: str


_SYSTEM_HEADER = (
    "You are a human annotator scoring replies in an online discussion. "
    "Score the CHILD post in relation to the PARENT post it replies to, "
    "not in isolation.\n"
    "Dimensions to score:\n"
)

_SYSTEM_FOOTER = (
    "\nRespond with a single JSON object and nothing else: no explanation, "
    "no reasoning, no text before or after the object. The object must have "
    "exactly these keys, each mapped to an integer score: "
    + ", ".join(f'"{name}"' for name in NAMES) + "."
)


def build_prompt(parent_text: str, child_text: str,
                 scale: AnnotationScale = AnnotationScale()) -> Prompt:
    """Deterministic system+user prompt; both scale bounds appear exactly
    once per dimension and user texts never leak into the system message."""
    if not parent_text.strip() or not child_text.strip():
        raise EmptyText("parent and child texts must be non-empty")
    lines = []
    for d in DIMENSIONS:
        lines.append(f"- {d.name} (integer from {scale.min:+d} to "
                     f"{scale.max:+d}): negative values mean the child post "
                     f"is more {d.negative_pole} toward the parent, positive "
                     f"values mean it is more {d.positive_pole}.")
    system = _SYSTEM_HEADER + "\n".join(lines) + _SYSTEM_FOOTER
    user = (f"PARENT POST:\n<<<\n{parent_text}\n>>>\n\n"
            f"CHILD POST (score this one):\n<<<\n{child_text}\n>>>")
    return Prompt(system=system, user=user,
                  parent_text=parent_text, child_text=child_text)


# --- strict response parsing ----------------------------------------------------

def parse_annotation_json(text: str,
                          scale: AnnotationScale = AnnotationScale()) -> dict[str, int]:
    """Parse a backend response into one integer per dimension.

    Rejects anything that is not exactly one JSON object with exactly the
    expected keys and in-range integer values.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NotJson(f"not a single JSON document: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise NotJson(f"expected a JSON object, got {type(obj).__name__}")
    missing = [k for k in NAMES if k not in obj]
    if missing:
        raise MissingKey(f"missing keys {missing}")
    extra = sorted(set(obj) - set(NAMES))
    if extra:
        raise ExtraKey(f"unexpected keys {extra}")
    scores: dict[str, int] = {}
    for key in NAMES:
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise NonInteger(f"{key}: {value!r} is not an integer")
        if not scale.contains(value):
            raise OutOfRange(f"{key}: {value} outside [{scale.min}, {scale.max}]")
        scores[key] = value
    return scores


# --- cache ----------------------------------------------------------------------

def _pair_text(tag: str, parent_text: str, child_text: str) -> str:
    """The tag and the two texts joined by NUL; texts holding NUL, which
    would make that ambiguous, are length-prefixed under ``tag-lp``."""
    texts = (parent_text, child_text)
    if "\x00" in parent_text or "\x00" in child_text:
        tag, texts = f"{tag}-lp", [f"{len(t)}:{t}" for t in texts]
    return f"{tag}\x00{texts[0]}\x00{texts[1]}"


def pair_content_hash(parent_text: str, child_text: str,
                      scale: AnnotationScale) -> str:
    """sha256 of the pair's texts (``_pair_text``) and scale."""
    pair = _pair_text("pair", parent_text, child_text)
    text = f"{pair}\x00{scale.min}:{scale.max}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cache_head(pair_hash: str, model: str) -> str:
    """A cache record's JSONL line up to its dimension; ``cache_tail`` adds
    the rest, together the bytes ``json.dumps`` writes for the record."""
    return (f'{{"pair_hash": {_json_quote(pair_hash)}, "model": '
            f'{_json_quote(model)}, "dimension": ')


def cache_tail(dimension: str, replication: int, score: int,
               timestamp: int) -> str:
    """The rest of a cache record's JSONL line, from its dimension."""
    return (f'{_json_quote(dimension)}, "replication": {replication}, '
            f'"score": {score}, "timestamp": {timestamp}}}\n')


_BLOCK_BYTES = 1 << 20  # the cache is read about this much at a time

# The exact line cache_head + cache_tail write, when json.loads would decode
# it to the same values (strings without escapes or control characters,
# integers short enough for any int() digit limit), cut at its first _SEP:
# neither the pair hash nor the model holds a '"', so an exact line has no
# earlier _SEP, and it is exact if and only if both halves match.
_SEP = '", "dimension": '
_CHARS = r'[^"\\\x00-\x1f]*'
_INTEGER = r'-?(?:0|[1-9][0-9]{0,17})'
_HEAD = re.compile(rf'\{{"pair_hash": "({_CHARS})", "model": "({_CHARS})')
_TAIL = re.compile(rf'"({_CHARS})", "replication": ({_INTEGER}), '
                   rf'"score": ({_INTEGER}), "timestamp": {_INTEGER}\}}')


_MISSING = -128  # an empty score slot; a slot holds scores -127..127
_DIMENSION = {name: d for d, name in enumerate(NAMES)}


class AnnotationCache:
    """Append-only JSONL score cache, safe for concurrent appends from one
    process. Records: {pair_hash, model, dimension, replication, score,
    timestamp}, keyed by (pair_hash, model, dimension, replication).

    The file is read as the text-mode ``open`` reads it (strict UTF-8,
    universal newlines), ``_BLOCK_BYTES`` and the rest of a line at a time,
    so a block holds whole lines and a ``\\r\\n`` is never split. Each
    line is cut at its first ``_SEP`` into a head and a tail, and each
    distinct head and tail of a block is matched once (``_HEAD``,
    ``_TAIL``); a line that is not the exact layout ``cache_head`` +
    ``cache_tail`` write goes to ``json.loads``. Later lines win; a
    malformed line, or one scored outside -127..127, is skipped with a
    warning naming its line.

    In memory each (pair hash, model) has one row: ``_rows`` maps the pair
    to its offset in ``_block``, an int8 array holding replication r of
    ``NAMES[d]`` at ``row + d * n_replications + r`` (``_MISSING`` where
    empty). A record of another dimension or replication makes its row but
    keeps no score: no reader asks for it."""

    def __init__(self, path: str | Path, n_replications: int = 4):
        self.path = Path(path)
        self.n_replications = n_replications
        self._lock = threading.Lock()
        self._rows: dict[tuple[str, str], int] = {}
        self._block = array("b")
        self._empty_row = array("b", [_MISSING]) * (len(NAMES) * n_replications)
        self._appender: "object | None" = None
        self._torn_tail = False  # last line lacks its "\n" (interrupted write)
        line_no = 0
        try:
            with open(self.path, "rb") as fh:
                while block := fh.read(_BLOCK_BYTES) + fh.readline():
                    line_no = self._read_block(block, line_no)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise AnnotationError(f"cannot read cache {self.path}: "
                                  f"{exc.strerror}") from None

    def _read_block(self, block: bytes, line_no: int) -> int:
        """Record the scores of a block of whole lines that follows line
        ``line_no``; returns the number of the block's last line."""
        if b"\r" in block:  # neither byte occurs inside a UTF-8 sequence
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        try:
            text = block.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no += block.count(b"\n", 0, exc.start) + 1
            raise AnnotationError(f"cache line {line_no} in {self.path} is "
                                  f"not UTF-8 ({exc.reason})") from None
        self._torn_tail = not text.endswith("\n")
        lines = text.split("\n")
        if not self._torn_tail:
            lines.pop()  # the empty string after the final "\n"
        # Each distinct head and tail is matched once per block: a response
        # writes its lines under one head, and few tails occur.
        keys: dict[str, tuple] = {}  # head -> (pair, model), or ()
        fields: dict[str, tuple] = {}  # tail -> (dim, rep, score), or ()
        rows: dict[str, int] = {}  # head -> its row's offset in _block
        slots: dict[str, tuple[int, int]] = {}  # tail -> (slot, int8 score)
        n, flat, store = self.n_replications, self._block, self._store
        for offset, line in enumerate(lines):
            head, _, tail = line.partition(_SEP)
            slot = slots.get(tail)
            if slot is not None:
                row = rows.get(head)
                if row is not None:
                    flat[row + slot[0]] = slot[1]
                    continue
            got = fields.get(tail)
            if got is None:
                match = _TAIL.fullmatch(tail)
                got = fields[tail] = (match[1], int(match[2]),
                                      int(match[3])) if match else ()
                if got and _MISSING < got[2] < 128:
                    d = _DIMENSION.get(got[0])
                    if d is not None and 0 <= got[1] < n:
                        slots[tail] = (d * n + got[1], got[2])
            key = keys.get(head)
            if key is None:
                match = _HEAD.fullmatch(head)
                key = keys[head] = match.groups() if match else ()
            try:
                if key and got:  # an exact line
                    store(*key, *got)
                    rows[head] = self._rows[key]
                elif line.strip():
                    rec = json.loads(line)
                    store(rec["pair_hash"], rec["model"], rec["dimension"],
                          int(rec["replication"]), int(rec["score"]))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError):  # int(Infinity)
                log.warning("ignoring malformed cache line %d in %s",
                            line_no + offset + 1, self.path)
        return line_no + len(lines)

    def _store(self, pair: str, model: str, dim: str, rep: int,
               score: int) -> None:
        """Record one score in its pair's row, which it makes if needed;
        ValueError for a score outside -127..127 and TypeError for an
        unhashable name, both before anything is recorded."""
        if not _MISSING < score < 128:
            raise ValueError(f"score {score} outside -127..127")
        d, n = _DIMENSION.get(dim), self.n_replications
        row = self._rows.get((pair, model))
        if row is None:
            row = len(self._block)
            self._block.extend(self._empty_row)  # before a reader can see it
            self._rows[pair, model] = row
        if d is not None and 0 <= rep < n:
            self._block[row + d * n + rep] = score

    def get(self, key: tuple[str, str, str, int]) -> int | None:
        pair, model, dim, rep = key
        d, n = _DIMENSION.get(dim), self.n_replications
        row = self._rows.get((pair, model))
        if row is None or d is None or not 0 <= rep < n:
            return None
        score = self._block[row + d * n + rep]
        return None if score == _MISSING else score

    _get = get  # put's own lookup: a wrapper that counts get calls skips it

    def put(self, key: tuple[str, str, str, int], score: int, timestamp: int) -> None:
        """Record and append one score; ValueError, before either, if no
        slot takes its key (a dimension not in NAMES, a replication outside
        0..n_replications-1) or it lies outside -127..127, and
        AnnotationError if the file cannot be opened or written."""
        if key[2] not in _DIMENSION or not 0 <= key[3] < self.n_replications:
            raise ValueError(f"no score slot for dimension {key[2]!r}, "
                             f"replication {key[3]} of {self.n_replications}")
        with self._lock:
            if self._get(key) is not None:
                return
            self._store(*key, score)
            try:
                if self._appender is None:
                    self._appender = open(self.path, "a", encoding="utf-8",
                                          newline="\n")
                    if self._torn_tail:  # close it, or the record joins it
                        self._appender.write("\n")
                        self._torn_tail = False
                self._appender.write(cache_head(*key[:2])
                                     + cache_tail(*key[2:], score, timestamp))
                self._appender.flush()
            except OSError as exc:
                raise AnnotationError(f"cannot write cache {self.path}: "
                                      f"{exc.strerror}") from None

    def close(self) -> None:
        with self._lock:
            if self._appender is not None:
                self._appender.close()
                self._appender = None

    def model_pairs(self) -> tuple[str, list[str]]:
        """The one model id the cache holds ("" when empty) and its sorted
        pair hashes. Raises AmbiguousModel when it holds more than one
        model id: replications of different models are never combined."""
        models = sorted({model for _, model in self._rows})
        if len(models) > 1:
            raise AmbiguousModel(
                f"annotation cache {self.path} mixes model ids "
                f"{', '.join(models)}; replications of different "
                f"models are never combined")
        return (models or [""])[0], sorted({pair for pair, _ in self._rows})

    def scores(self, pair_hashes: Sequence[str], model: str) -> np.ndarray:
        """The float64 pair x dimension x replication scores of
        ``pair_hashes``, replications 0..n_replications-1, NaN where
        missing: one ``get`` per score."""
        get, reps = self.get, range(self.n_replications)
        flat = [get((pair_hash, model, name, rep)) for pair_hash in pair_hashes
                for name in NAMES for rep in reps]
        return np.array(flat, float).reshape(  # None reads as NaN
            len(pair_hashes), len(NAMES), self.n_replications)


# --- backends --------------------------------------------------------------------

class Backend(Protocol):
    model: str

    def complete(self, prompt: Prompt, replication_index: int) -> str: ...


_TIMEOUT = 60.0  # seconds an HTTP connection waits to connect or read


def _environment_proxy(scheme: str, netloc: str,
                       host: str) -> tuple[str, int, dict[str, str]] | None:
    """The proxy host, port and headers the environment sets for a URL, or
    None. ``NO_PROXY`` applies as ``requests`` applied it: host names and
    domain suffixes (``proxy_bypass_environment``), plus CIDR entries for
    IP-literal hosts."""
    proxies = urllib.request.getproxies_environment()
    proxy_url = proxies.get(scheme) or proxies.get("all")
    if proxy_url is None or urllib.request.proxy_bypass_environment(netloc, proxies):
        return None
    try:
        address = ipaddress.ip_address(host)
    except ValueError:
        address = None
    if address is not None:
        for entry in proxies.get("no", "").split(","):
            try:
                if "/" in entry and address in ipaddress.ip_network(
                        entry.strip(), strict=False):
                    return None
            except ValueError:
                pass
    proxy = urllib.parse.urlsplit(
        proxy_url if "://" in proxy_url else f"http://{proxy_url}")
    try:
        proxy_host, proxy_port = proxy.hostname, proxy.port
    except ValueError:
        proxy_host = None
    if proxy.scheme != "http" or not proxy_host:
        raise BackendError(f"unsupported {scheme} proxy: only "
                           f"http://host:port proxies are supported")
    headers = {}
    if proxy.username is not None:
        credentials = (f"{urllib.parse.unquote(proxy.username)}:"
                       f"{urllib.parse.unquote(proxy.password or '')}")
        headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("utf-8")).decode("ascii")
    return proxy_host, proxy_port or 80, headers


def _tls_context() -> ssl.SSLContext:
    bundle = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle)
    except OSError as exc:
        raise BackendError(f"cannot load CA bundle {bundle!r}: {exc}") from None


class HttpBackend:
    """Chat-style HTTP backend over the standard library's ``http.client``.

    Built from the backend URL, the name of the environment variable that
    holds the bearer token and the model id. POSTs a JSON body {model,
    system, input, effort, verbosity}; the response must be a JSON object
    whose "output_text" field carries the assistant text. The token is read
    when the backend is built (BackendError if it is unset, before any
    request) and never logged. ``~/.netrc`` is never read.

    Everything else is settled once, when the backend is built: the URL's
    host, port and request target; the proxy from ``HTTP_PROXY``,
    ``HTTPS_PROXY`` or ``ALL_PROXY`` (either case) unless ``NO_PROXY``
    names the host, a domain suffix of it or, for an IP-literal host, a
    CIDR block holding it; and for https the TLS context, which trusts
    ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE`` if set and otherwise the
    system store (where OpenSSL's ``SSL_CERT_FILE``/``SSL_CERT_DIR``
    apply). An http URL goes through the proxy in absolute form, an https
    URL through a CONNECT tunnel; credentials in the proxy URL are sent as
    ``Proxy-Authorization: Basic``. Only ``http://`` proxies are supported.

    Each worker thread keeps one keep-alive connection, so ``concurrency``
    workers open at most that many; each waits ``_TIMEOUT`` seconds to
    connect or read. A reused connection that the server has closed
    meanwhile is reopened and the request sent again, once, without
    costing an attempt. Any other transport error closes the thread's
    connection and raises BackendError. Any status but 200 raises
    BackendError on a connection that stays open: redirects are not
    followed. ``close`` closes every connection. The backend counts no
    requests: ``annotate_pair`` returns how many it made.
    """

    def __init__(self, url: str, api_key_env: str, model: str):
        token = os.environ.get(api_key_env)
        if token is None:
            raise BackendError(
                f"API key environment variable {api_key_env!r} is not set")
        if "\r" in token or "\n" in token:
            raise BackendError(
                f"API key environment variable {api_key_env!r} "
                f"holds a line break")
        self.model = model
        self._lock = threading.Lock()
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._headers = {"Authorization": f"Bearer {token}",
                         "Content-Type": "application/json",
                         "User-Agent": f"threadtone/{__version__}"}

        parts = urllib.parse.urlsplit(url)
        try:
            host, port = parts.hostname, parts.port
        except ValueError:
            host = None
        if parts.scheme not in ("http", "https") or not host:
            raise BackendError(f"backend URL {url!r} is not an "
                               f"http or https URL")
        netloc = parts.netloc.rpartition("@")[2]
        self._target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        https = parts.scheme == "https"
        # how _connection opens a connection: its class and options, the
        # (host, port) it dials and the (host, port, headers) of a CONNECT
        # tunnel through the proxy, if any
        self._class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._options: dict = {"timeout": _TIMEOUT}
        if https:
            self._options["context"] = _tls_context()
        self._address, self._tunnel = (host, port), None
        proxy = _environment_proxy(parts.scheme, netloc, host)
        if proxy is not None:
            self._address, proxy_headers = proxy[:2], proxy[2]
            if https:
                self._tunnel = (host, port, proxy_headers)
            else:
                self._target = f"http://{netloc}{self._target}"  # absolute form
                self._headers.update(proxy_headers)

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._class(*self._address, **self._options)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
            with self._lock:
                self._connections.append(conn)
        return conn

    def _exchange(self, conn: http.client.HTTPConnection,
                  body: bytes) -> tuple[int, bytes]:
        """Send one request and read its whole response, also on a non-200
        status, so the connection stays usable."""
        reused = conn.sock is not None
        try:
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
        except ConnectionError:  # before any status line arrived
            if not reused:
                raise
            conn.close()  # the server closed it while it sat idle
            conn.request("POST", self._target, body, self._headers)
            response = conn.getresponse()
        return response.status, response.read()

    def complete(self, prompt: Prompt, replication_index: int) -> str:
        body = json.dumps({
            "model": self.model,
            "system": prompt.system,
            "input": prompt.user,
            "effort": EFFORT,
            "verbosity": VERBOSITY,
        }, allow_nan=False).encode("utf-8")
        conn = self._connection()
        try:
            status, data = self._exchange(conn, body)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise BackendError(f"request failed: {exc}") from None
        if status != 200:
            raise BackendError(f"backend returned HTTP {status}")
        try:
            text = json.loads(data)["output_text"]
        except (ValueError, KeyError, TypeError):
            raise BackendError("response JSON lacks 'output_text'") from None
        if not isinstance(text, str):
            raise BackendError("response 'output_text' is not a string")
        return text

    def close(self) -> None:
        """Close every worker's connection."""
        with self._lock:
            for conn in self._connections:
                conn.close()
            self._connections.clear()
            self._local = threading.local()


def mock_annotate(parent_text: str, child_text: str, dimension_name: str,
                  replication_index: int, seed: int,
                  scale: AnnotationScale = AnnotationScale()) -> int:
    """Deterministic stand-in score: a stable hash of the seed, pair texts,
    dimension and replication index, mapped uniformly onto the scale."""
    pair = _pair_text(f"mock\x00{seed}", parent_text, child_text)
    text = f"{pair}\x00{dimension_name}\x00{replication_index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big")
    return scale.min + draw % scale.n_points


class MockBackend:
    """Offline deterministic backend emitting valid JSON responses."""

    def __init__(self, seed: int = 0, scale: AnnotationScale = AnnotationScale(),
                 model: str = MOCK_MODEL_ID):
        self.seed = seed
        self.scale = scale
        self.model = model

    def complete(self, prompt: Prompt, replication_index: int) -> str:
        scores = {
            name: mock_annotate(prompt.parent_text, prompt.child_text,
                                name, replication_index, self.seed,
                                self.scale)
            for name in NAMES
        }
        return json.dumps(scores)


# --- annotation driver -------------------------------------------------------------

def annotate_pair(pair_hash: str, parent_text: str, child_text: str,
                  label: str, backend: Backend, cache: AnnotationCache,
                  scores: np.ndarray, scale: AnnotationScale = AnnotationScale(),
                  max_retries: int = 3, cache_timestamp: int = 0) -> int:
    """Fill in, in place, the NaN (missing) cells of ``scores``, the dimension
    x replication row of ``AnnotationCache.scores`` for the pair hashed
    ``pair_hash`` (named ``label`` in errors). Only a replication missing a
    dimension is requested, as an isolated conversation retried up to
    ``max_retries`` more times on malformed output or transport errors; the
    scores it fills are cached at once, so a failed run resumes. Returns
    its request count, retries included, as AnnotationFailed.requests does."""
    model = backend.model
    prompt = build_prompt(parent_text, child_text, scale)
    requests = 0
    for rep, column in enumerate(scores.T.tolist()):  # one replication's scores
        if not any(map(math.isnan, column)):
            continue
        last_error: Exception | None = None
        fresh = None
        for _attempt in range(max_retries + 1):
            requests += 1
            try:
                text = backend.complete(prompt, rep)
                fresh = parse_annotation_json(text, scale)
                break
            except (AnnotationParseError, BackendError) as exc:
                last_error = exc
        if fresh is None:
            raise AnnotationFailed(
                f"pair {label}, replication {rep}: giving up after "
                f"{max_retries + 1} attempts ({last_error})", requests)
        for d, name in enumerate(NAMES):
            if math.isnan(column[d]):
                scores[d, rep] = fresh[name]
                cache.put((pair_hash, model, name, rep), fresh[name],
                          cache_timestamp)
    return requests


@dataclass(frozen=True, eq=False)
class Annotations:
    """A corpus's distinct (parent, child) pairs, aligned with its
    ``PostArrays``: ``scores[k, d, r]`` is replication r of dimension d
    (``DIMENSIONS`` order) of the pair hashed ``pair_hashes[k]``, NaN if
    missing, and the reply at position ``reply[j]`` of ``posts`` is pair ``row[j]``.
    ``requests`` counts the backend requests that filled them in."""

    posts: PostArrays
    reply: np.ndarray
    row: np.ndarray
    pair_hashes: list[str]
    scores: np.ndarray
    requests: int = 0

    def __len__(self) -> int:
        return len(self.reply)

    def means(self) -> np.ndarray:
        """``compute_feature_table``'s means matrix, NaN for the roots; the
        sums are exact, so each mean is ``sum(scores) / len(scores)``."""
        means = np.full((len(self.posts.posts), len(NAMES)), np.nan)
        means[self.reply] = self.scores.mean(axis=2)[self.row]
        return means


def _reply_pairs(posts: PostArrays, texts: Sequence[str], scale: AnnotationScale,
                 ) -> tuple[np.ndarray, np.ndarray, list[tuple[str, str, str, str]]]:
    """The replies' positions, each reply's row among the distinct pairs
    (grouped by hash, the cache's key), and per pair its hash, parent and
    child texts and first reply's id."""
    reply = np.flatnonzero(posts.parent >= 0)
    rows: dict[str, int] = {}
    row, pairs = [], []
    for c, p in zip(reply.tolist(), posts.parent[reply].tolist()):
        parent, child = texts[p], texts[c]
        pair_hash = pair_content_hash(parent, child, scale)
        if pair_hash not in rows:
            rows[pair_hash] = len(pairs)
            pairs.append((pair_hash, parent, child, posts.posts[c]))
        row.append(rows[pair_hash])
    return reply, np.array(row, np.int64), pairs


def annotate_corpus(posts: PostArrays, texts: Sequence[str], backend: Backend,
                    cache: AnnotationCache, scale: AnnotationScale = AnnotationScale(),
                    max_retries: int = 3, concurrency: int = 1,
                    cache_timestamp: int = 0) -> Annotations:
    """Annotate each distinct (parent, child) pair of the corpus's replies
    once (EmptyText, before any request, if a text is empty); replies
    sharing a pair share its scores. Only pairs missing a cached score reach
    ``annotate_pair``, on ``concurrency`` workers, one pair at a time; after
    the first pair that fails, no worker starts another. The result counts
    the requests the pairs' ``annotate_pair`` calls made; so does, over
    every pair that ran, the AnnotationFailed raised when one fails."""
    reply, row, pairs = _reply_pairs(posts, texts, scale)
    if any(not parent.strip() or not child.strip() for _, parent, child, _ in pairs):
        raise EmptyText("parent and child texts must be non-empty")
    pair_hashes = [pair[0] for pair in pairs]
    scores = cache.scores(pair_hashes, backend.model)
    failed = threading.Event()
    requests: list[int] = []  # per pair that ran, the requests it made

    def work(k: int) -> None:
        if failed.is_set():
            return
        try:
            requests.append(annotate_pair(*pairs[k], backend, cache, scores[k],
                                          scale, max_retries, cache_timestamp))
        except BaseException as exc:
            failed.set()
            requests.append(getattr(exc, "requests", 0))  # AnnotationFailed's
            raise

    missing = np.flatnonzero(np.isnan(scores).any(axis=(1, 2))).tolist()
    try:
        if concurrency <= 1:  # inline: a one-worker pool only adds its start-up
            list(map(work, missing))
        else:
            with ThreadPoolExecutor(max_workers=concurrency) as pool:
                list(pool.map(work, missing))
    except AnnotationFailed as exc:  # the pool has let its workers finish
        raise AnnotationFailed(f"{exc}; {sum(requests)} backend calls made",
                               sum(requests)) from None
    return Annotations(posts, reply, row, pair_hashes, scores.astype(np.int64),
                       sum(requests))


def load_annotation_means(posts: PostArrays, texts: Sequence[str],
                          cache: AnnotationCache,
                          scale: AnnotationScale = AnnotationScale()) -> np.ndarray:
    """``compute_feature_table``'s means matrix of the corpus from the
    cache: NaN where a reply lacks a complete replication set on a
    dimension. One model id only (AmbiguousModel); AnnotationError if the
    cache holds pairs but none of the corpus's, as one scored on another
    scale does (the pair hashes include it)."""
    model, cached = cache.model_pairs()
    reply, row, pairs = _reply_pairs(posts, texts, scale)
    pair_hashes = [pair[0] for pair in pairs]
    if cached and pair_hashes and set(cached).isdisjoint(pair_hashes):
        raise AnnotationError(
            f"annotation cache {cache.path} holds none of the corpus's "
            f"{len(pair_hashes)} reply pairs on the scale [{scale.min}, "
            f"{scale.max}] ({len(cached)} pairs of model {model})")
    scores = cache.scores(pair_hashes, model)
    return Annotations(posts, reply, row, pair_hashes, scores).means()


def cached_pair_scores(cache: AnnotationCache) -> tuple[list[str], np.ndarray]:
    """The sorted hashes of the pairs the cache holds every dimension's
    replications 0..n_replications-1 of, and their int64 pair x dimension x
    replication scores. One model id only (AmbiguousModel)."""
    model, pair_hashes = cache.model_pairs()
    scores = cache.scores(pair_hashes, model)
    complete = ~np.isnan(scores).any(axis=(1, 2))
    items = [h for h, whole in zip(pair_hashes, complete.tolist()) if whole]
    return items, scores[complete].astype(np.int64)
