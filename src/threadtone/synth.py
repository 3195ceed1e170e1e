"""Synthetic discussion corpora with known generative coefficients.

Posts accrete chronologically, so parent, older-sibling and branch-root
covariates already exist when a reply's scores are drawn from the configured
linear model plus a discussion-level random intercept (which induces the
within-cluster error correlation the sandwich estimator targets) and
i.i.d. noise. Posts whose covariates do not exist yet (e.g. replies to the
root under a parent-alignment model) get an exogenous uniform draw instead,
which seeds sign and level variation into every branch. Scores are clipped
to the annotation scale (clips are counted) and rounded to integers unless
continuous mode is on; replication scores are the rounded value plus an
optional zero-sum +-1 jitter, so their mean reproduces it exactly.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import product, repeat
from pathlib import Path
from typing import Iterator
import numpy as np

from .annotate import MOCK_MODEL_ID, cache_head, cache_tail, pair_content_hash
from .corpus import Corpus, DiscussionTree, Post, PostArrays, tree_arrays
from .dimensions import NAMES, AnnotationScale
from .errors import StatsError
from .features import compute_feature_table
from .regression import MODEL_SPECS, critical_value, run_model
from .report import write_json
from .workers import run_map

log = logging.getLogger(__name__)

_BASE_TIME = 1_600_000_000  # fixed epoch anchor for synthetic timestamps
_DISCUSSION_SPACING = 30 * 86_400


@dataclass(frozen=True)
class SynthConfig:
    n_discussions: int = 60
    mean_posts: float = 38.0
    p_reply_to_root: float = 0.3
    mean_hours_between_posts: float = 6.0
    model: str = "M4"
    coefficients: dict[str, tuple[float, ...]] = field(default_factory=dict)
    sigma: float = 1.0
    tau: float = 0.5
    seed: int = 0
    scale_min: int = -5
    scale_max: int = 5
    replications: int = 4
    continuous: bool = False
    model_id: str = MOCK_MODEL_ID  # model id stamped on cache records

    def __post_init__(self) -> None:
        for name in ("n_discussions", "seed", "scale_min", "scale_max",
                     "replications"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # the comparisons are written so that NaN fails them
        if not (self.n_discussions >= 1 and 1 <= self.mean_posts < math.inf):
            raise ValueError("need at least one discussion and a finite "
                             "mean_posts >= 1")
        if not 0 <= self.mean_hours_between_posts < math.inf:
            raise ValueError("mean_hours_between_posts must be finite and "
                             ">= 0")
        if not (0.0 <= self.p_reply_to_root <= 1.0):
            raise ValueError("p_reply_to_root must be a probability")
        if not (0 <= self.sigma < math.inf and 0 <= self.tau < math.inf):
            raise ValueError("noise standard deviations must be finite "
                             "and >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.model not in MODEL_SPECS:
            raise ValueError(f"unknown model {self.model!r}")
        AnnotationScale(self.scale_min, self.scale_max)  # min < 0 < max
        spec = MODEL_SPECS[self.model]
        for dim_name, coefs in self.coefficients.items():
            if dim_name not in NAMES:
                raise ValueError(f"unknown dimension {dim_name!r}")
            expected = 1 + len(spec.terms)
            if len(coefs) != expected:
                raise ValueError(
                    f"{dim_name}: {self.model} needs {expected} coefficients "
                    f"(intercept first), got {len(coefs)}")
            if not all(math.isfinite(c) for c in coefs):
                raise ValueError(f"{dim_name}: coefficients must be finite")

    @property
    def scale(self) -> AnnotationScale:
        return AnnotationScale(self.scale_min, self.scale_max)

    def coefficient_vector(self, dim_name: str) -> np.ndarray:
        spec = MODEL_SPECS[self.model]
        coefs = self.coefficients.get(dim_name)
        if coefs is None:
            return np.zeros(1 + len(spec.terms))
        return np.asarray(coefs, dtype=float)

    @staticmethod
    def from_json(path: str | Path) -> "SynthConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not (isinstance(raw, dict)
                and isinstance(raw.get("coefficients", {}), dict)):
            raise ValueError("a synth config and its coefficients must be "
                             "JSON objects")
        raw["coefficients"] = {k: tuple(v)
                               for k, v in raw.get("coefficients", {}).items()}
        return SynthConfig(**raw)

    def to_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))


def _texts(arrays: PostArrays) -> list[str]:
    """The generated posts' texts, in the order of ``arrays``."""
    return [f"synthetic reply {pid}" if p >= 0 else f"synthetic root post {pid}"
            for pid, p in zip(arrays.posts, arrays.parent.tolist())]


@dataclass(eq=False)
class SynthResult:
    """A generated corpus as arrays: its structure, and the posts' means
    (NaN for roots) and authors in that order; ``generated`` holds each
    post's position there in generation order, ``jitter`` each reply's
    replication jitter in that order (None without integer replications).
    ``corpus`` is built on first access."""
    arrays: PostArrays
    mean_matrix: np.ndarray
    truncations: int
    config: SynthConfig
    authors: np.ndarray
    generated: np.ndarray
    jitter: tuple | None

    @cached_property
    def corpus(self) -> Corpus:
        """The corpus, its posts in generation order."""
        arrays = self.arrays
        ids, parent = arrays.posts, arrays.parent.tolist()
        stamps, authors = arrays.timestamp.tolist(), self.authors.tolist()
        discussion = np.repeat(arrays.discussion_ids,
                               np.diff(arrays.starts)).tolist()
        texts = _texts(arrays)
        posts = {}
        for i in self.generated.tolist():
            pid, p = ids[i], parent[i]
            posts[pid] = Post(pid, discussion[i], None if p < 0 else ids[p],
                              f"u{authors[i]:02d}", stamps[i], texts[i])
        depth = tree_arrays(arrays.parent)[0].tolist()
        starts = arrays.starts.tolist()
        trees = {did: DiscussionTree(did, dict(zip(ids[a:b], depth[a:b])), ids[a:b])
                 for did, a, b in zip(arrays.discussion_ids, starts, starts[1:])}
        return Corpus(discussions=trees, posts=posts)

    @property
    def cache_records(self) -> CacheRecords | None:
        """Annotation-cache records, built on each access; None if continuous."""
        if self.config.continuous:
            return None
        # each integer score n_reps times, with a zero-sum +-1 jitter that
        # keeps its mean exact
        scale, n_reps = self.config.scale, self.config.replications
        replies = self.generated[self.arrays.parent[self.generated] >= 0]
        values = self.mean_matrix[replies].astype(np.int64)
        reps = np.repeat(values[..., None], n_reps, axis=2)
        if self.jitter is not None:
            coin, lo, hi = self.jitter
            r, m = np.nonzero((scale.min < values) & (values < scale.max)
                              & coin)
            lo, hi = lo[r, m], hi[r, m]
            hi += hi >= lo
            reps[r, m, lo] -= 1
            reps[r, m, hi] += 1
        texts = _texts(self.arrays)
        return CacheRecords(
            [pair_content_hash(texts[p], texts[c], scale) for c, p in
             zip(replies.tolist(), self.arrays.parent[replies].tolist())],
            self.config.model_id, reps)


@dataclass(frozen=True, eq=False)
class CacheRecords:
    """Annotation-cache records as columns: the replies' pair hashes in
    generation order, the model id and their int64 reply x
    dimension x replication scores; iterating yields the records as dicts."""
    pair_hashes: list[str]
    model: str
    scores: np.ndarray

    def __iter__(self) -> Iterator[dict]:
        for pair_hash, by_dimension in zip(self.pair_hashes,
                                           self.scores.tolist()):
            for name, reps in zip(NAMES, by_dimension):
                for rep, score in enumerate(reps):
                    yield {"pair_hash": pair_hash, "model": self.model,
                           "dimension": name, "replication": rep,
                           "score": score, "timestamp": 0}


def _draw_discussion(rng: np.random.Generator, config: SynthConfig) -> tuple:
    """One discussion's random draws, in the generator's fixed order."""
    scale, n_dims = config.scale, len(NAMES)
    n_posts = max(2, int(rng.poisson(config.mean_posts)))
    u = rng.normal(0.0, config.tau, size=n_dims)
    gaps = rng.exponential(config.mean_hours_between_posts * 3600.0,
                           size=n_posts - 1)
    root_coins = rng.random(size=n_posts - 1)
    picks = rng.random(size=n_posts - 1)
    eps = rng.normal(0.0, config.sigma, size=(n_posts - 1, n_dims))
    # inner 80% of the scale leaves headroom for the noise terms
    base = rng.uniform(0.8 * scale.min, 0.8 * scale.max,
                       size=(n_posts - 1, n_dims))
    jitter_coin = rng.random(size=(n_posts - 1, n_dims))
    jitter_lo = rng.random(size=(n_posts - 1, n_dims))
    jitter_hi = rng.random(size=(n_posts - 1, n_dims))
    authors = rng.integers(0, 40, size=n_posts)
    return (n_posts, u, gaps, root_coins, picks, eps, base,
            jitter_coin, jitter_lo, jitter_hi, authors)


def _simulate(config: SynthConfig, draws: list[tuple]) -> tuple:
    """The structure and scores of every discussion, flat over the posts in
    generation order: ``(sizes, parents, timestamps, authors, scores,
    truncations, jitter)``, a root's parent -1 and its scores NaN.

    Whatever does not depend on earlier scores (parents, timestamps, branch
    roots, older-sibling counts, which terms exist, the exogenous path) is
    computed as whole arrays. The score recursion then steps over the reply
    index, for every discussion that long at once, so its cost grows with
    the longest discussion, not with the number of posts.
    """
    scale, n_reps = config.scale, config.replications
    (sizes, u, gaps, root_coins, picks, eps, base, jitter_coin, jitter_lo,
     jitter_hi, authors) = zip(*draws)
    first = np.cumsum((0,) + sizes[:-1])        # the position of each root
    discussion = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(len(discussion)) - first[discussion]
    replies = np.flatnonzero(local > 0)
    jitter = (None if config.continuous or n_reps < 2 else
              (np.concatenate(jitter_coin) < 0.5,
               (np.concatenate(jitter_lo) * n_reps).astype(np.int64),
               (np.concatenate(jitter_hi) * (n_reps - 1)).astype(np.int64)))

    # --- everything that does not depend on earlier scores ----------------
    i = local[replies]
    parents = np.full(len(local), -1)
    parents[replies] = first[discussion[replies]] + np.where(
        (i == 1) | (np.concatenate(root_coins) < config.p_reply_to_root),
        0, 1 + (np.concatenate(picks) * (i - 1)).astype(np.int64))
    _, branch_root, n_older = tree_arrays(parents)
    starts = _BASE_TIME + _DISCUSSION_SPACING * np.arange(len(sizes))
    if starts[-1] + max(g.sum() for g in gaps) >= 2.0 ** 62:
        raise ValueError("timestamps would overflow 64-bit integers; "
                         "lower mean_hours_between_posts")
    stamps = np.concatenate([start + np.r_[0, np.cumsum(g.astype(np.int64))]
                             for start, g in zip(starts.tolist(), gaps)])

    # from here on the replies go in step order: the first reply of every
    # discussion, then every second reply, and so on
    in_steps = np.argsort(i, kind="stable")
    replies, i = replies[in_steps], i[in_steps]
    steps = np.flatnonzero(np.r_[True, i[1:] != i[:-1], True]).tolist()
    at = parents[replies]
    hours = {"dt_prev": (stamps[replies] - stamps[replies - 1]) / 3600.0,
             "dt_parent": (stamps[replies] - stamps[at]) / 3600.0}
    exists = dict.fromkeys(hours, np.ones(len(replies), bool))
    exists["parent_metric"] = exists["br_neg"] = parents[at] >= 0
    exists["sib_older_mean"] = n_older[replies] > 0
    sib_divisor = np.maximum(n_older[replies], 1)[:, None]
    betas = np.array([config.coefficient_vector(name) for name in NAMES])
    terms = [(betas[:, t], term.split(":"))
             for t, term in enumerate(MODEL_SPECS[config.model].terms, 1)]
    any_term = np.logical_or.reduce([
        np.logical_and.reduce([exists[name] for name in fields])
        for _, fields in terms])[:, None]
    u = np.array(u)[discussion[replies]]
    eps = np.concatenate(eps)[in_steps]
    # no covariate exists yet (e.g. replies to the root): an exogenous draw
    # seeds variation into the process
    exogenous = np.concatenate(base)[in_steps] + u + eps

    # --- the score recursion, one reply index at a time -------------------
    values = np.zeros((len(local), len(NAMES)))   # roots stay 0
    sib_sums = np.zeros_like(values)
    clipped = np.empty(eps.shape, bool)
    intercept = betas[:, 0]
    lo_f, hi_f = float(scale.min), float(scale.max)
    for lo, hi in zip(steps[:-1], steps[1:]):
        step_at = at[lo:hi]           # distinct parents: one per discussion
        cov = {name: column[lo:hi, None] for name, column in hours.items()}
        cov["parent_metric"] = values[step_at]
        # a left fold from 0 in sibling order, like sum()
        cov["sib_older_mean"] = sib_sums[step_at] / sib_divisor[lo:hi]
        cov["br_neg"] = values[branch_root[step_at]] < 0
        # a missing covariate reads 0 (the root's score, an empty sibling
        # sum), so with finite coefficients its term adds a signed zero; a
        # sum that starts at 0.0 is never -0.0, so that leaves it unchanged
        term_sum = 0.0
        for beta, fields in terms:
            product = cov[fields[0]]
            for name in fields[1:]:
                product = product * cov[name]
            term_sum = term_sum + beta * product
        y = np.where(any_term[lo:hi], intercept + term_sum + u[lo:hi]
                     + eps[lo:hi], exogenous[lo:hi])
        v = np.minimum(np.maximum(y, lo_f), hi_f)
        clipped[lo:hi] = v != y
        if not config.continuous:
            # rint rounds half to even like round(); + 0.0 turns -0.0 into 0
            v = np.rint(v) + 0.0
        values[replies[lo:hi]] = v
        sib_sums[step_at] += v

    values[local == 0] = np.nan
    return (sizes, parents, stamps, np.concatenate(authors), values,
            int(np.count_nonzero(clipped)), jitter)


def generate_corpus(config: SynthConfig) -> SynthResult:
    """Draw a corpus, post-level means and (unless continuous) replication
    scores, all fully determined by the config seed."""
    rng = np.random.default_rng(config.seed)
    sizes, parents, stamps, authors, values, truncations, jitter = _simulate(
        config, [_draw_discussion(rng, config)
                 for _ in range(config.n_discussions)])
    dids = [f"d{k:03d}" for k in range(len(sizes))]
    ids = [f"{did}-p{i:04d}" for did, n in zip(dids, sizes) for i in range(n)]
    # stored order: discussions by id ("d1000" sorts before "d101"), then
    # posts by (timestamp, post_id) ("p10000" sorts before "p9999")
    ranked = np.argsort(dids)
    order = np.lexsort((ids, stamps, np.repeat(np.argsort(ranked), sizes)))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    parents[parents >= 0] = position[parents[parents >= 0]]
    arrays = PostArrays(
        tuple(map(ids.__getitem__, order.tolist())),
        tuple(dids[k] for k in ranked.tolist()),
        np.cumsum(np.r_[0, np.array(sizes)[ranked]]), parents[order],
        stamps[order])
    return SynthResult(
        arrays=arrays, mean_matrix=values[order], truncations=truncations,
        config=config, authors=authors[order], generated=position,
        jitter=jitter)


def write_cache_records(records: CacheRecords, path: str | Path) -> None:
    """Write the records' lines, formatting each pair's head and each
    (dimension, replication, score) tail once: head + head.join(tails)."""
    scores = records.scores
    low, high = int(scores.min(initial=0)), int(scores.max(initial=0))
    tails = np.array([cache_tail(*key, 0) for key in product(
        NAMES, range(scores.shape[2]), range(low, high + 1))],
        dtype=object).reshape(*scores.shape[1:], -1)
    # every score's tail, indexed by (dimension, replication, score - low)
    rows = tails[(*np.indices(scores.shape[1:]), scores - low)]
    heads = map(cache_head, records.pair_hashes, repeat(records.model))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(head + head.join(row) for head, row in
                      zip(heads, rows.reshape(len(scores), -1).tolist()))


# --- coefficient recovery ---------------------------------------------------------

@dataclass(frozen=True)
class CoefficientRecovery:
    dimension: str
    term: str
    true_value: float
    mean_estimate: float
    bias: float
    sd_estimate: float
    coverage: float


@dataclass(frozen=True)
class RecoveryReport:
    model: str
    n_runs: int
    n_failed: int
    results: tuple[CoefficientRecovery, ...]

    def to_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))


def recovery_experiment(config: SynthConfig, n_runs: int) -> RecoveryReport:
    """Repeatedly generate, fit and check 95% CI coverage of the true
    coefficients; every run gets its own (seed, run) substream.

    The runs are independent, so they are spread over the CPUs in this
    process's affinity mask, in forked worker processes on Linux. They run
    in this process for one run, one CPU, where fork or the affinity mask is
    unavailable, or while other threads run. Either way the results are
    merged and the failed fits' ``run r (dimension)`` warnings logged in run
    order, so the report's bytes do not depend on the CPU count. Records
    logged inside a run reach this process's handlers too, just before that
    run's warnings. An error in a run is re-raised here with its type and
    message."""
    spec = MODEL_SPECS[config.model]
    target_dims = sorted(config.coefficients)
    if not target_dims:
        raise ValueError("config.coefficients must name at least one dimension")

    # seeding here also imports numpy.random once, before any fork
    run_configs = [_reseeded(config, run) for run in range(n_runs)]
    estimates: dict[tuple[str, str], list[float]] = {}
    covered: dict[tuple[str, str], list[bool]] = {}
    n_failed = 0
    with run_map(n_runs) as mapped:
        for run, (rows, failures) in enumerate(
                mapped(_recovery_run, run_configs)):
            for dim_name, message in failures:
                log.warning("run %d (%s): %s", run, dim_name, message)
            n_failed += len(failures)
            for dim_name, term, estimate, is_covered in rows:
                estimates.setdefault((dim_name, term), []).append(estimate)
                covered.setdefault((dim_name, term), []).append(is_covered)

    results = []
    for dim_name in target_dims:
        beta = config.coefficient_vector(dim_name)
        for t_idx, term in enumerate(("intercept",) + spec.terms):
            key = (dim_name, term)
            if key not in estimates:
                continue
            ests = np.asarray(estimates[key])
            results.append(CoefficientRecovery(
                dimension=dim_name, term=term, true_value=float(beta[t_idx]),
                mean_estimate=float(ests.mean()),
                bias=float(ests.mean() - beta[t_idx]),
                sd_estimate=float(ests.std(ddof=1)) if len(ests) > 1 else 0.0,
                coverage=float(np.mean(covered[key])),
            ))
    return RecoveryReport(model=config.model, n_runs=n_runs,
                          n_failed=n_failed, results=tuple(results))


def _recovery_run(config: SynthConfig) -> tuple[list[tuple], list[tuple]]:
    """One recovery run on its reseeded config: ``(dimension, term,
    estimate, covered)`` for every fitted term and ``(dimension, message)``
    for every failed fit, as plain values a worker process can return."""
    spec = MODEL_SPECS[config.model]
    result = generate_corpus(config)
    features = compute_feature_table(result.arrays, result.mean_matrix)
    rows, failures = [], []
    for dim_name in sorted(config.coefficients):
        beta = config.coefficient_vector(dim_name)
        try:
            table = run_model(spec, features, dim_name)
            crit = critical_value(table.n_clusters)
        except StatsError as exc:
            failures.append((dim_name, str(exc)))
            continue
        for t_idx, term in enumerate(table.terms):
            # epsilon keeps exact (zero-SE) fits counted as covered
            rows.append((dim_name, term.term, term.estimate,
                         abs(term.estimate - beta[t_idx])
                         <= crit * term.std_error + 1e-10))
    return rows, failures


def _reseeded(config: SynthConfig, run: int) -> SynthConfig:
    seed = int(np.random.SeedSequence([config.seed, run]).generate_state(1)[0])
    return replace(config, seed=seed)
