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
from scipy import stats as scipy_stats

from .annotate import MOCK_MODEL_ID, pair_content_hash
from .corpus import Corpus, Post, build_tree
from .dimensions import DIMENSIONS, AnnotationScale
from .errors import StatsError
from .features import compute_feature_table
from .regression import MODEL_SPECS, get_model_spec, run_model
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
    corpus: Corpus
    means: dict[str, dict[str, float]]
    cache_records: list[dict] | None
    truncations: int


def _gen_covariates(term_fields: set[str], post_idx: int, parent_idx: int,
                    depths: list[int], branch_roots: list[int],
                    timestamps: list[int], children: dict[int, list[int]],
                    values: list[dict[str, float]],
                    dim_name: str) -> dict[str, float | None]:
    cov: dict[str, float | None] = {}
    if "dt_prev" in term_fields:
        cov["dt_prev"] = (timestamps[post_idx] - timestamps[post_idx - 1]) / 3600.0
    if "dt_parent" in term_fields:
        cov["dt_parent"] = (timestamps[post_idx] - timestamps[parent_idx]) / 3600.0
    if "parent_metric" in term_fields:
        cov["parent_metric"] = (values[parent_idx][dim_name]
                                if depths[parent_idx] >= 1 else None)
    if "sib_older_mean" in term_fields:
        older = children.get(parent_idx, [])
        cov["sib_older_mean"] = (
            sum(values[c][dim_name] for c in older) / len(older)
            if older else None)
    if "br_neg" in term_fields:
        if depths[parent_idx] >= 1:  # focal post will sit at depth >= 2
            br = branch_roots[parent_idx] if depths[parent_idx] >= 2 else parent_idx
            cov["br_neg"] = 1.0 if values[br][dim_name] < 0 else 0.0
        else:
            cov["br_neg"] = None
    return cov


def generate_corpus(config: SynthConfig) -> SynthResult:
    """Draw a corpus, post-level means and (unless continuous) a replication
    cache, all fully determined by the config seed."""
    rng = np.random.default_rng(config.seed)
    spec = MODEL_SPECS[config.model]
    scale = config.scale
    term_fields = {name for term in spec.terms for name in term.split(":")}
    betas = {d.name: config.coefficient_vector(d.name) for d in DIMENSIONS}

    posts: list[Post] = []
    means: dict[str, dict[str, float]] = {}
    records: list[dict] | None = None if config.continuous else []
    truncations = 0

    for d in range(config.n_discussions):
        did = f"d{d:03d}"
        n_posts = max(2, int(rng.poisson(config.mean_posts)))
        u_d = rng.normal(0.0, config.tau, size=len(DIMENSIONS))
        gaps = rng.exponential(config.mean_hours_between_posts * 3600.0,
                               size=n_posts - 1)
        root_coins = rng.random(size=n_posts - 1)
        pick_a = rng.random(size=n_posts - 1)
        eps = rng.normal(0.0, config.sigma, size=(n_posts - 1, len(DIMENSIONS)))
        # inner 80% of the scale leaves headroom for the noise terms
        base_draws = rng.uniform(0.8 * scale.min, 0.8 * scale.max,
                                 size=(n_posts - 1, len(DIMENSIONS)))
        jitter_coin = rng.random(size=(n_posts - 1, len(DIMENSIONS)))
        jitter_lo = rng.random(size=(n_posts - 1, len(DIMENSIONS)))
        jitter_hi = rng.random(size=(n_posts - 1, len(DIMENSIONS)))
        authors = rng.integers(0, 40, size=n_posts)

        base = _BASE_TIME + d * _DISCUSSION_SPACING
        timestamps = [base]
        depths = [0]
        parent_of = [-1]
        branch_roots = [-1]
        children: dict[int, list[int]] = {}
        values: list[dict[str, float]] = [{}]
        ids = [f"{did}-p0000"]
        texts = [f"synthetic root post {did}-p0000"]
        non_root: list[int] = []

        for i in range(1, n_posts):
            j = i - 1
            if i == 1 or root_coins[j] < config.p_reply_to_root or not non_root:
                parent = 0
            else:
                parent = non_root[int(pick_a[j] * len(non_root))]
            timestamps.append(timestamps[-1] + int(gaps[j]))
            depths.append(depths[parent] + 1)
            branch_roots.append(i if depths[i] == 1 else branch_roots[parent])
            parent_of.append(parent)
            pid = f"{did}-p{i:04d}"
            ids.append(pid)
            texts.append(f"synthetic reply {pid}")

            post_values: dict[str, float] = {}
            post_means: dict[str, float] = {}
            for m, dim in enumerate(DIMENSIONS):
                beta = betas[dim.name]
                cov = _gen_covariates(term_fields, i, parent, depths,
                                      branch_roots, timestamps, children,
                                      values, dim.name)
                term_sum = 0.0
                any_term = False
                for t, term in enumerate(spec.terms, start=1):
                    product = 1.0
                    for name in term.split(":"):
                        part = cov.get(name)
                        if part is None:
                            product = None
                            break
                        product *= part
                    if product is not None:
                        term_sum += beta[t] * product
                        any_term = True
                if any_term:
                    y = beta[0] + term_sum + u_d[m] + eps[j, m]
                else:
                    # no covariate exists yet (e.g. replies to the root):
                    # an exogenous draw seeds variation into the process
                    y = base_draws[j, m] + u_d[m] + eps[j, m]
                clipped = min(max(y, float(scale.min)), float(scale.max))
                if clipped != y:
                    truncations += 1
                y = clipped
                if config.continuous:
                    post_values[dim.name] = y
                    post_means[dim.name] = y
                    continue
                v = int(np.rint(y))
                reps = [v] * config.replications
                if (config.replications >= 2 and scale.min < v < scale.max
                        and jitter_coin[j, m] < 0.5):
                    lo = int(jitter_lo[j, m] * config.replications)
                    hi = int(jitter_hi[j, m] * (config.replications - 1))
                    if hi >= lo:
                        hi += 1
                    reps[lo] -= 1
                    reps[hi] += 1
                post_values[dim.name] = v
                post_means[dim.name] = sum(reps) / len(reps)
                pair_hash = pair_content_hash(texts[parent], texts[i], scale)
                for rep, score in enumerate(reps):
                    records.append({
                        "pair_hash": pair_hash, "model": config.model_id,
                        "dimension": dim.name, "replication": rep,
                        "score": score, "timestamp": 0,
                    })
            values.append(post_values)
            means[pid] = post_means
            children.setdefault(parent, []).append(i)
            non_root.append(i)

        for i in range(n_posts):
            posts.append(Post(
                post_id=ids[i], discussion_id=did,
                parent_id=None if parent_of[i] < 0 else ids[parent_of[i]],
                author=f"u{int(authors[i]):02d}",
                timestamp=int(timestamps[i]), text=texts[i]))

    discussions = {}
    posts_by_id = {}
    by_discussion: dict[str, list[Post]] = {}
    for post in posts:
        by_discussion.setdefault(post.discussion_id, []).append(post)
        posts_by_id[post.post_id] = post
    for did in sorted(by_discussion):
        discussions[did] = build_tree(by_discussion[did])
    corpus = Corpus(discussions=discussions, posts=posts_by_id)
    return SynthResult(corpus=corpus, means=means, cache_records=records,
                       truncations=truncations)


def write_cache_records(records: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


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


def recovery_experiment(config: SynthConfig, n_runs: int,
                        confidence: float = 0.95) -> RecoveryReport:
    """Repeatedly generate, fit and check CI coverage of the true
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
            except StatsError as exc:
                log.warning("run %d (%s): %s", run, dim_name, exc)
                n_failed += 1
                continue
            crit = scipy_stats.t.ppf((1 + confidence) / 2, table.n_clusters - 1)
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
