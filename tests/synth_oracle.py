"""Reference implementation of the synthetic corpus generator.

This is the original formulation of ``threadtone.synth.generate_corpus``:
every score rebuilds a covariate dict, splits each model term, re-sums all
older siblings and indexes numpy scalars. It is kept as the oracle that the
compact generator must match exactly: the same corpus, means, replication
records and truncation count for every configuration.

The older-sibling mean is an explicit left fold from int ``0``, which is what
``sum()`` computes up to Python 3.11; 3.12's compensated ``sum()`` would
otherwise change the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from threadtone.annotate import pair_content_hash
from threadtone.corpus import Corpus, Post
from threadtone.dimensions import DIMENSIONS
from threadtone.regression import MODEL_SPECS
from threadtone.synth import SynthConfig

from corpus_oracle import build_tree

_BASE_TIME = 1_600_000_000
_DISCUSSION_SPACING = 30 * 86_400


@dataclass
class OracleResult:
    corpus: Corpus
    means: dict[str, dict[str, float]]
    cache_records: list[dict] | None
    truncations: int


def _left_fold(values) -> float:
    total = 0
    for value in values:
        total = total + value
    return total


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
            _left_fold(values[c][dim_name] for c in older) / len(older)
            if older else None)
    if "br_neg" in term_fields:
        if depths[parent_idx] >= 1:  # focal post will sit at depth >= 2
            br = branch_roots[parent_idx] if depths[parent_idx] >= 2 else parent_idx
            cov["br_neg"] = 1.0 if values[br][dim_name] < 0 else 0.0
        else:
            cov["br_neg"] = None
    return cov


def oracle_generate_corpus(config: SynthConfig) -> OracleResult:
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
    return OracleResult(corpus=corpus, means=means, cache_records=records,
                        truncations=truncations)
