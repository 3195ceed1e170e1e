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
from pathlib import Path
import numpy as np

from .annotate import MOCK_MODEL_ID, cache_line, pair_content_hash
from .corpus import Corpus, DiscussionTree, Post
from .dimensions import DIMENSIONS, AnnotationScale
from .errors import StatsError
from .features import compute_feature_table
from .regression import MODEL_SPECS, critical_value, get_model_spec, run_model
from .report import write_json

log = logging.getLogger(__name__)

_BASE_TIME = 1_600_000_000  # fixed epoch anchor for synthetic timestamps
_DISCUSSION_SPACING = 30 * 86_400
_DIM_NAMES = tuple(d.name for d in DIMENSIONS)
# the score recursion runs over blocks of discussions holding at most this
# many padded replies (a paper-scale corpus of 60 x 38 is ~3,500): a block's
# arrays stay at a few MB, while each block costs one step per reply index
_BLOCK_REPLIES = 8192


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
            if dim_name not in _DIM_NAMES:
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


@dataclass
class SynthResult:
    """A generated corpus and its post-level means. ``replication_scores``
    holds every reply's integer scores, flat, in the order of
    ``corpus.posts`` (reply, then dimension, then replication), or None in
    continuous mode."""
    corpus: Corpus
    means: dict[str, dict[str, float]]
    truncations: int
    replication_scores: list[int] | None
    config: SynthConfig

    @property
    def cache_records(self) -> list[dict] | None:
        """Annotation-cache records, built on each access; None if continuous."""
        if self.replication_scores is None:
            return None
        scale, model = self.config.scale, self.config.model_id
        posts, scores = self.corpus.posts, iter(self.replication_scores)
        return [{"pair_hash": pair_hash, "model": model, "dimension": name,
                 "replication": rep, "score": next(scores), "timestamp": 0}
                for post in posts.values() if post.parent_id is not None
                for pair_hash in (pair_content_hash(
                    posts[post.parent_id].text, post.text, scale),)
                for name in _DIM_NAMES
                for rep in range(self.config.replications)]


def _draw_discussion(rng: np.random.Generator, config: SynthConfig) -> tuple:
    """One discussion's random draws, in the generator's fixed order."""
    scale, n_dims = config.scale, len(_DIM_NAMES)
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


def _draw_blocks(rng: np.random.Generator, config: SynthConfig):
    """Every discussion's draws, in order, grouped into blocks of consecutive
    discussions whose replies, padded to the block's longest discussion, fit
    in _BLOCK_REPLIES (a block holds at least one discussion)."""
    block: list[tuple] = []
    longest = 0
    for _ in range(config.n_discussions):
        draws = _draw_discussion(rng, config)
        longest = max(longest, draws[0] - 1)
        if block and (len(block) + 1) * longest > _BLOCK_REPLIES:
            yield block
            block, longest = [], draws[0] - 1
        block.append(draws)
    yield block


def _older_sibling_counts(parent_keys: np.ndarray) -> np.ndarray:
    """For each position, how many earlier positions share its parent key."""
    order = np.argsort(parent_keys, kind="stable")
    ranked = parent_keys[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    counts = np.empty_like(parent_keys)
    counts[order] = (np.arange(len(ranked))
                     - np.repeat(starts, np.diff(np.r_[starts, len(ranked)])))
    return counts


def _discussion_tree(did: str, ids: list[str], parents: list[int],
                     depths: list[int], branch_roots: list[int],
                     timestamps: list[int]) -> DiscussionTree:
    """The tree build_tree derives, from the generator's parent indices."""
    n_posts = len(ids)
    # timestamps never decrease and ids are zero-padded to four digits, so
    # up to p9999 the index order is the (timestamp, post_id) order
    order = (range(n_posts) if n_posts <= 10_000 else
             sorted(range(n_posts), key=lambda i: (timestamps[i], ids[i])))
    children: dict[str, list[str]] = {}
    for i in order:
        if i:
            children.setdefault(ids[parents[i]], []).append(ids[i])
    return DiscussionTree(
        discussion_id=did, root_id=ids[0],
        children={pid: tuple(kids) for pid, kids in children.items()},
        depth=dict(zip(ids, depths)),
        branch_root_of={ids[i]: ids[branch_roots[i]]
                        for i in range(1, n_posts)},
        order=tuple(ids[i] for i in order))


def _simulate(config: SynthConfig, block: list[tuple], first: int) -> tuple:
    """The structure and scores of one block of discussions, as arrays;
    ``first`` is the index of its first discussion.

    Whatever does not depend on earlier scores (parents, timestamps, branch
    roots, older-sibling counts, which terms exist, the exogenous path) is
    computed as whole arrays, padded to the longest discussion. The score
    recursion then steps over the reply index for all discussions at once,
    so its cost grows with the longest discussion, not with the number of
    posts.

    Returns ``(sizes, parents, depths, branch_roots, timestamps, authors,
    scores, truncations, jitter)``: one row per discussion for parents to
    timestamps (one column per post index), the author arrays and the reply
    scores (one column per reply); jitter holds what the replication jitter
    needs, or None without integer replications.
    """
    scale = config.scale
    lo_f, hi_f = float(scale.min), float(scale.max)
    n_dims = len(_DIM_NAMES)
    (sizes, u, gaps, root_coins, picks, eps, base, jitter_coin, jitter_lo,
     jitter_hi, authors) = zip(*block)
    n_disc, n_steps = len(sizes), max(sizes) - 1   # step j draws reply j + 1
    valid = np.arange(n_steps) < np.array(sizes)[:, None] - 1

    def padded(arrays):
        out = np.zeros((n_disc, n_steps) + arrays[0].shape[1:])
        out[valid] = np.concatenate(arrays)
        return out

    n_reps = config.replications
    jitter = (None if config.continuous or n_reps < 2 else
              (padded(jitter_coin) < 0.5,
               (padded(jitter_lo) * n_reps).astype(np.int64),
               (padded(jitter_hi) * (n_reps - 1)).astype(np.int64)))

    # --- everything that does not depend on earlier scores ----------------
    step = np.arange(1, n_steps + 1)
    parent = np.where(
        (step == 1) | (padded(root_coins) < config.p_reply_to_root) | ~valid,
        0, 1 + (padded(picks) * (step - 1)).astype(np.int64))
    parents = np.hstack([np.zeros((n_disc, 1), np.int64), parent])
    index = np.broadcast_to(np.arange(n_steps + 1), parents.shape)
    # pointer doubling: every post's branch root (depth-1 ancestor) and depth
    branch_roots = np.where(parents == 0, index, parents)
    while True:
        hop = np.take_along_axis(branch_roots, branch_roots, axis=1)
        if np.array_equal(hop, branch_roots):
            break
        branch_roots = hop
    ancestor, depths = parents, (index > 0).astype(np.int64)
    while ancestor.any():
        depths = depths + np.take_along_axis(depths, ancestor, axis=1)
        ancestor = np.take_along_axis(ancestor, ancestor, axis=1)
    starts = _BASE_TIME + _DISCUSSION_SPACING * (
        first + np.arange(n_disc)[:, None])
    gaps = padded(gaps)
    if starts[-1, 0] + gaps.sum(axis=1).max() >= 2.0 ** 62:
        raise ValueError("timestamps would overflow 64-bit integers; "
                         "lower mean_hours_between_posts")
    stamps = np.hstack([starts, starts + np.cumsum(gaps.astype(np.int64),
                                                   axis=1)])
    hours = {"dt_prev": np.diff(stamps, axis=1) / 3600.0,
             "dt_parent": (stamps[:, 1:] - np.take_along_axis(
                 stamps, parent, axis=1)) / 3600.0}

    spec = MODEL_SPECS[config.model]
    reads = {name for term in spec.terms for name in term.split(":")}
    row_base = (n_steps + 1) * np.arange(n_disc)[:, None]
    parent_at = row_base + parent            # flat index of each parent
    branch_at = row_base + np.take_along_axis(branch_roots, parent, axis=1)
    exists = dict.fromkeys(hours, valid)
    exists["parent_metric"] = exists["br_neg"] = parent > 0
    if "sib_older_mean" in reads:
        n_older = _older_sibling_counts(parent_at.ravel()).reshape(
            parent.shape)
        exists["sib_older_mean"] = n_older > 0
        sib_divisor = np.maximum(n_older, 1)[..., None]
    betas = np.array([config.coefficient_vector(name) for name in _DIM_NAMES])
    terms = [(betas[:, t], term.split(":"))
             for t, term in enumerate(spec.terms, start=1)]
    any_term = np.logical_or.reduce([
        np.logical_and.reduce([exists[name] for name in fields])
        for _, fields in terms])[..., None]
    # no covariate exists yet (e.g. replies to the root): an exogenous draw
    # seeds variation into the process
    u = np.array(u)
    eps = padded(eps)
    exogenous = padded(base) + u[:, None] + eps

    # --- the score recursion, one reply index at a time -------------------
    values = np.zeros((n_disc, n_steps + 1, n_dims))   # roots stay 0
    flat_values = values.reshape(-1, n_dims)
    if "sib_older_mean" in reads:
        sib_sums = np.zeros_like(flat_values)
    clipped = np.empty((n_disc, n_steps, n_dims), bool)
    intercept = betas[:, 0]
    cov = {}
    for j in range(n_steps):
        at = parent_at[:, j]
        for name, column in hours.items():
            if name in reads:
                cov[name] = column[:, j, None]
        if "parent_metric" in reads:
            cov["parent_metric"] = flat_values[at]
        if "sib_older_mean" in reads:
            # a left fold from 0 in sibling order, like sum()
            cov["sib_older_mean"] = sib_sums[at] / sib_divisor[:, j]
        if "br_neg" in reads:
            cov["br_neg"] = flat_values[branch_at[:, j]] < 0
        # a missing covariate reads 0 (the root's score, an empty sibling
        # sum), so with finite coefficients its term adds a signed zero; a
        # sum that starts at 0.0 is never -0.0, so that leaves it unchanged
        term_sum = 0.0
        for beta, fields in terms:
            product = cov[fields[0]]
            for name in fields[1:]:
                product = product * cov[name]
            term_sum = term_sum + beta * product
        y = np.where(any_term[:, j],
                     intercept + term_sum + u + eps[:, j], exogenous[:, j])
        v = np.minimum(np.maximum(y, lo_f), hi_f)
        clipped[:, j] = v != y
        if not config.continuous:
            # rint rounds half to even like round(); + 0.0 turns -0.0 into 0
            v = np.rint(v) + 0.0
        values[:, j + 1] = v
        if "sib_older_mean" in reads:
            sib_sums[at] += v

    truncations = int(np.count_nonzero(clipped[valid]))
    return (sizes, parents, depths, branch_roots, stamps, authors,
            values[:, 1:], truncations, jitter)


def _replication_scores(values: np.ndarray, jitter: tuple | None,
                        scale: AnnotationScale, n_reps: int) -> list[int]:
    """One discussion's replication scores, reply by reply and dimension by
    dimension: each integer score n_reps times, with a zero-sum +-1 jitter
    that keeps its mean exact."""
    reps = np.repeat(values.astype(np.int64)[..., None], n_reps, axis=2)
    if jitter is not None:
        coin, lo, hi = jitter
        r, m = np.nonzero((scale.min < reps[..., 0])
                          & (reps[..., 0] < scale.max) & coin)
        lo, hi = lo[r, m], hi[r, m]
        hi += hi >= lo
        reps[r, m, lo] -= 1
        reps[r, m, hi] += 1
    return reps.ravel().tolist()


def generate_corpus(config: SynthConfig) -> SynthResult:
    """Draw a corpus, post-level means and (unless continuous) replication
    scores, all fully determined by the config seed."""
    posts_by_id: dict[str, Post] = {}
    means: dict[str, dict[str, float]] = {}
    discussions: dict[str, DiscussionTree] = {}
    scores: list[int] | None = None if config.continuous else []
    truncations = 0
    first = 0
    for block in _draw_blocks(np.random.default_rng(config.seed), config):
        (sizes, parents, depths, branch_roots, stamps, authors, values,
         block_truncations, jitter) = _simulate(config, block, first)
        truncations += block_truncations
        for k, n_posts in enumerate(sizes):
            did = f"d{first + k:03d}"
            ids = [f"{did}-p{i:04d}" for i in range(n_posts)]
            parent_row = parents[k, :n_posts].tolist()
            stamp_row = stamps[k, :n_posts].tolist()
            author_row = authors[k].tolist()
            posts = [Post(ids[0], did, None, f"u{author_row[0]:02d}",
                          stamp_row[0], f"synthetic root post {ids[0]}")]
            posts.extend(Post(pid, did, ids[p], f"u{a:02d}", t,
                              f"synthetic reply {pid}")
                         for pid, p, a, t in zip(ids[1:], parent_row[1:],
                                                 author_row[1:],
                                                 stamp_row[1:]))
            posts_by_id.update(zip(ids, posts))
            replies = values[k, :n_posts - 1]
            means.update(zip(ids[1:], (dict(zip(_DIM_NAMES, row))
                                       for row in replies.tolist())))
            if scores is not None:
                draws = (None if jitter is None else
                         tuple(a[k, :n_posts - 1] for a in jitter))
                scores += _replication_scores(replies, draws, config.scale,
                                              config.replications)
            discussions[did] = _discussion_tree(
                did, ids, parent_row, depths[k, :n_posts].tolist(),
                branch_roots[k, :n_posts].tolist(), stamp_row)
        first += len(sizes)
    corpus = Corpus(discussions=dict(sorted(discussions.items())),
                    posts=posts_by_id)
    return SynthResult(corpus=corpus, means=means, truncations=truncations,
                       replication_scores=scores, config=config)


def write_cache_records(records: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(cache_line(**record) for record in records)


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
    coefficients; every run gets its own (seed, run) substream."""
    spec = get_model_spec(config.model)
    target_dims = sorted(config.coefficients)
    if not target_dims:
        raise ValueError("config.coefficients must name at least one dimension")

    estimates: dict[tuple[str, str], list[float]] = {}
    covered: dict[tuple[str, str], list[bool]] = {}
    n_failed = 0
    for run in range(n_runs):
        run_config = _reseeded(config, run)
        result = generate_corpus(run_config)
        features = compute_feature_table(result.corpus, result.means)
        for dim_name in target_dims:
            beta = config.coefficient_vector(dim_name)
            try:
                table = run_model(spec, features, dim_name)
                crit = critical_value(table.n_clusters)
            except StatsError as exc:
                log.warning("run %d (%s): %s", run, dim_name, exc)
                n_failed += 1
                continue
            for t_idx, term in enumerate(table.terms):
                key = (dim_name, term.term)
                estimates.setdefault(key, []).append(term.estimate)
                # epsilon keeps exact (zero-SE) fits counted as covered
                covered.setdefault(key, []).append(
                    abs(term.estimate - beta[t_idx])
                    <= crit * term.std_error + 1e-10)

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


def _reseeded(config: SynthConfig, run: int) -> SynthConfig:
    seed = int(np.random.SeedSequence([config.seed, run]).generate_state(1)[0])
    return replace(config, seed=seed)
