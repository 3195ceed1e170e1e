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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
import numpy as np

from .annotate import MOCK_MODEL_ID, cache_line, pair_content_hash
from .corpus import Corpus, Post, build_tree
from .dimensions import DIMENSIONS, AnnotationScale
from .errors import StatsError
from .features import compute_feature_table
from .regression import MODEL_SPECS, critical_value, get_model_spec, run_model
from .report import write_json

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
        if self.n_discussions < 1 or self.mean_posts < 1:
            raise ValueError("need at least one discussion and one post")
        if not (0.0 <= self.p_reply_to_root <= 1.0):
            raise ValueError("p_reply_to_root must be a probability")
        if self.sigma < 0 or self.tau < 0:
            raise ValueError("noise standard deviations must be >= 0")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.model not in MODEL_SPECS:
            raise ValueError(f"unknown model {self.model!r}")
        spec = MODEL_SPECS[self.model]
        for dim_name, coefs in self.coefficients.items():
            expected = 1 + len(spec.terms)
            if len(coefs) != expected:
                raise ValueError(
                    f"{dim_name}: {self.model} needs {expected} coefficients "
                    f"(intercept first), got {len(coefs)}")

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


_DIM_NAMES = tuple(d.name for d in DIMENSIONS)
_FIELDS = ("dt_prev", "dt_parent", "parent_metric", "sib_older_mean", "br_neg")


def generate_corpus(config: SynthConfig) -> SynthResult:
    """Draw a corpus, post-level means and (unless continuous) replication
    scores, all fully determined by the config seed."""
    rng = np.random.default_rng(config.seed)
    scale = config.scale
    lo_f, hi_f = float(scale.min), float(scale.max)
    n_reps = config.replications
    # each term as (coefficient index, indices into a post's covariates)
    terms = [(t, [_FIELDS.index(name) for name in term.split(":")])
             for t, term in enumerate(MODEL_SPECS[config.model].terms, start=1)]
    betas = [config.coefficient_vector(name).tolist() for name in _DIM_NAMES]
    n_dims = len(_DIM_NAMES)

    posts_by_discussion: dict[str, list[Post]] = {}
    posts_by_id: dict[str, Post] = {}
    means: dict[str, dict[str, float]] = {}
    scores: list[int] | None = None if config.continuous else []
    truncations = 0

    for d in range(config.n_discussions):
        did = f"d{d:03d}"
        n_posts = max(2, int(rng.poisson(config.mean_posts)))
        u_d = rng.normal(0.0, config.tau, size=n_dims).tolist()
        gaps = rng.exponential(config.mean_hours_between_posts * 3600.0,
                               size=n_posts - 1).tolist()
        root_coins = rng.random(size=n_posts - 1).tolist()
        pick_a = rng.random(size=n_posts - 1).tolist()
        eps = rng.normal(0.0, config.sigma, size=(n_posts - 1, n_dims)).tolist()
        # inner 80% of the scale leaves headroom for the noise terms
        base_draws = rng.uniform(0.8 * scale.min, 0.8 * scale.max,
                                 size=(n_posts - 1, n_dims)).tolist()
        jitter_coin = rng.random(size=(n_posts - 1, n_dims)).tolist()
        jitter_lo = rng.random(size=(n_posts - 1, n_dims)).tolist()
        jitter_hi = rng.random(size=(n_posts - 1, n_dims)).tolist()
        authors = rng.integers(0, 40, size=n_posts).tolist()

        timestamps = [_BASE_TIME + d * _DISCUSSION_SPACING]
        branch_roots = [-1]
        posts = [Post(f"{did}-p0000", did, None, f"u{authors[0]:02d}",
                      timestamps[0], f"synthetic root post {did}-p0000")]
        values = [[0] * n_posts for _ in range(n_dims)]
        # per-parent older-sibling counts and sums (a left fold from int 0,
        # like sum())
        sib_counts = [0] * n_posts
        sib_sums = [[0] * n_posts for _ in range(n_dims)]

        for i in range(1, n_posts):
            j = i - 1
            if i == 1 or root_coins[j] < config.p_reply_to_root:
                parent = 0
            else:  # uniform over the earlier replies 1..i-1
                parent = 1 + int(pick_a[j] * j)
            timestamps.append(timestamps[j] + int(gaps[j]))
            branch_roots.append(branch_roots[parent] if parent else i)
            pid = f"{did}-p{i:04d}"
            posts.append(Post(pid, did, posts[parent].post_id,
                              f"u{authors[i]:02d}", timestamps[i],
                              f"synthetic reply {pid}"))
            dt_prev = (timestamps[i] - timestamps[j]) / 3600.0
            dt_parent = (timestamps[i] - timestamps[parent]) / 3600.0
            n_older = sib_counts[parent]
            sib_counts[parent] += 1
            post_means = []
            for m, (vals, sums, beta) in enumerate(zip(values, sib_sums, betas)):
                cov = (dt_prev, dt_parent, vals[parent] if parent else None,
                       sums[parent] / n_older if n_older else None,
                       (1.0 if vals[branch_roots[parent]] < 0 else 0.0)
                       if parent else None)
                term_sum = 0.0
                any_term = False
                for t, fields in terms:
                    product = 1.0
                    for k in fields:
                        part = cov[k]
                        if part is None:
                            break
                        product *= part
                    else:
                        term_sum += beta[t] * product
                        any_term = True
                if any_term:
                    y = beta[0] + term_sum + u_d[m] + eps[j][m]
                else:
                    # no covariate exists yet (e.g. replies to the root):
                    # an exogenous draw seeds variation into the process
                    y = base_draws[j][m] + u_d[m] + eps[j][m]
                clipped = min(max(y, lo_f), hi_f)
                if clipped != y:
                    truncations += 1
                # round() rounds half to even, like np.rint
                vals[i] = v = clipped if config.continuous else round(clipped)
                sums[parent] = sums[parent] + v
                post_means.append(float(v))  # the jitter below sums to zero
                if config.continuous:
                    continue
                reps = [v] * n_reps
                if (n_reps >= 2 and scale.min < v < scale.max
                        and jitter_coin[j][m] < 0.5):
                    lo = int(jitter_lo[j][m] * n_reps)
                    hi = int(jitter_hi[j][m] * (n_reps - 1))
                    if hi >= lo:
                        hi += 1
                    reps[lo] -= 1
                    reps[hi] += 1
                scores.extend(reps)
            means[pid] = dict(zip(_DIM_NAMES, post_means))

        posts_by_discussion[did] = posts
        posts_by_id.update((post.post_id, post) for post in posts)

    discussions = {did: build_tree(posts_by_discussion[did])
                   for did in sorted(posts_by_discussion)}
    return SynthResult(corpus=Corpus(discussions=discussions, posts=posts_by_id),
                       means=means, truncations=truncations,
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
