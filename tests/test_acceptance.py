"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Tolerances and runtime budgets are asserted, not aspirational.
"""

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from threadtone.annotate import (
    AnnotationCache,
    MockBackend,
    annotate_corpus,
    mock_annotate,
    parse_annotation_json,
)
from threadtone.agreement import (
    dispersion_stats,
    fleiss_kappa,
    krippendorff_alpha_interval,
)
from threadtone.corpus import tree_arrays
from threadtone.dimensions import NAMES, AnnotationScale
from threadtone.errors import ExtraKey, NonInteger, NotJson, OutOfRange
from threadtone.features import compute_feature_table
from threadtone.regression import (
    cluster_robust_vcov,
    filter_rows,
    get_model_spec,
    run_model,
)
from threadtone.report import PipelineOptions, format_p, run_pipeline
from threadtone.regression import stars_for
from threadtone.synth import SynthConfig, generate_corpus, recovery_experiment

from conftest import (
    corpus_from_posts,
    mean_map,
    mean_matrix,
    random_tree_posts,
    uniform_means,
)
from corpus_oracle import oracle_trees
from feature_oracle import assert_table_equals_rows, oracle_feature_rows
from test_agreement import alpha_oracle, kappa_oracle
from test_regression import random_instance, sandwich_oracle

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TABLE7 = (-0.92099, 0.32972, -0.39631, -0.19115)


def report(name: str) -> None:
    print(f"PASS: {name}")


def test_sandwich_oracle_equivalence():
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    for _ in range(100):
        x, residuals, clusters = random_instance(rng, max_n=50, max_k=4,
                                                 cluster_range=(2, 10))
        got = cluster_robust_vcov(x, residuals, clusters)
        want = sandwich_oracle(x, residuals, clusters)
        assert np.abs(got - want).max() < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"sandwich matches brute-force formula on 100 instances "
           f"(max-abs < 1e-12, {elapsed:.2f}s)")


def test_hc0_identity_with_singleton_clusters():
    rng = np.random.default_rng(2002)
    for _ in range(100):
        x, residuals, _ = random_instance(rng)
        n = x.shape[0]
        got = cluster_robust_vcov(x, residuals, [f"row{i}" for i in range(n)])
        bread = np.linalg.inv(x.T @ x)
        hc0 = bread @ (x.T * residuals ** 2) @ x @ bread
        assert np.abs(got - hc0).max() < 1e-12
    report("singleton-cluster sandwich equals HC0 on 100 instances (< 1e-12)")


def test_noiseless_identifiability_all_models():
    coefficient_sets = {
        "M1": (0.4, 0.0002), "M2": (-1.2, 0.0001), "M3": (0.1, 0.25),
        "M4": (-0.5, 0.31), "M5": (-0.3, 0.27, 0.15, 0.04),
        "M6": TABLE7,
    }
    for model, coefs in coefficient_sets.items():
        config = SynthConfig(n_discussions=12, mean_posts=30, model=model,
                             coefficients={"disagree_vs_agree": coefs},
                             sigma=0.0, tau=0.0, seed=31, continuous=True)
        result = generate_corpus(config)
        features = compute_feature_table(
            result.arrays, result.mean_matrix)
        table = run_model(get_model_spec(model), features, "disagree_vs_agree")
        for j, term in enumerate(table.terms):
            assert abs(term.estimate - coefs[j]) < 1e-8, (model, term.term)
            assert term.std_error <= 1e-8, (model, term.term)
    report("noiseless synthetic data recovers M1-M6 coefficients "
           "(|error| < 1e-8, SE <= 1e-8)")


def test_ci_coverage_m6_paper_scale():
    config = SynthConfig(
        n_discussions=60, mean_posts=38, model="M6",
        coefficients={"disagree_vs_agree": TABLE7},
        sigma=1.0, tau=0.15, seed=2024, continuous=True)
    start = time.perf_counter()
    result = recovery_experiment(config, n_runs=500)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert result.n_failed == 0
    coverages = {}
    for r in result.results:
        assert 0.90 <= r.coverage <= 0.99, (r.term, r.coverage)
        coverages[r.term] = r.coverage
    report(f"M6 95% CI coverage per coefficient in [0.90, 0.99] over 500 "
           f"runs at corpus scale ({coverages}, {elapsed:.0f}s)")


def test_agreement_statistic_oracles():
    rng = np.random.default_rng(2003)
    for _ in range(100):
        n_items = int(rng.integers(2, 30))
        values = rng.integers(-5, 6, size=(4, n_items))
        alpha = krippendorff_alpha_interval(values)
        kappa = fleiss_kappa(values)
        if (values != values[0, 0]).any():  # not the degenerate constant
            assert abs(alpha - alpha_oracle(values)) < 1e-12
            assert abs(kappa - kappa_oracle(values, AnnotationScale())) < 1e-12
        else:
            assert alpha == kappa == 1.0

    hand = np.array([[1], [2], [3], [4]])
    stats = dispersion_stats(hand)
    assert abs(stats.mapd_mean - 1.6667) < 1e-4
    assert abs(stats.exact_agreement - 0.0) < 1e-4
    assert abs(stats.pct_within_1 - 0.5) < 1e-4
    assert abs(stats.mean_range - 3.0) < 1e-4
    assert abs(stats.mean_sd - 1.2910) < 1e-4

    identical = np.tile([[2, -1, 0]], (4, 1))
    alpha = krippendorff_alpha_interval(identical)
    kappa = fleiss_kappa(identical)
    stats = dispersion_stats(identical)
    assert (alpha, kappa, stats.exact_agreement) == (1.0, 1.0, 1.0)
    assert (stats.mapd_mean, stats.mean_range, stats.mean_sd) == (0.0, 0.0, 0.0)
    report("Krippendorff/Fleiss match definitional oracles (< 1e-12); "
           "dispersion hand values and degenerate cases exact")


def test_model_filters_match_bruteforce_recount():
    rng = np.random.default_rng(2004)
    dim = "disagree_vs_agree"
    for trial in range(50):
        config = SynthConfig(
            n_discussions=int(rng.integers(3, 9)),
            mean_posts=int(rng.integers(6, 25)),
            model="M4", coefficients={dim: (0.1, 0.3)},
            sigma=1.0, tau=0.3, seed=int(rng.integers(1 << 30)))
        result = generate_corpus(config)
        features = compute_feature_table(result.arrays, result.mean_matrix)
        rows = oracle_feature_rows(result.corpus.posts.values(),
                                   mean_map(result.arrays, result.mean_matrix))
        assert_table_equals_rows(features, rows)
        recount = {
            "M1": sum(1 for r in rows if r.dt_prev is not None),
            "M2": sum(1 for r in rows if r.dt_parent is not None),
            "M3": sum(1 for r in rows if r.sib_older_mean[dim] is not None),
            # Table-note filters: M4 excludes replies to the root; M5/M6
            # additionally require an older sibling
            "M4": sum(1 for r in rows if r.depth >= 2),
            "M5": sum(1 for r in rows if r.depth >= 2
                      and r.sib_older_mean[dim] is not None),
            "M6": sum(1 for r in rows if r.depth >= 2
                      and r.sib_older_mean[dim] is not None),
        }
        for model_id, expected in recount.items():
            sample = filter_rows(get_model_spec(model_id), features, dim)
            assert sample.sum() == expected, (trial, model_id)
    report("per-model sample sizes equal brute-force recounts on 50 "
           "random corpora")


def test_geometry_invariants():
    rng = np.random.default_rng(2005)
    dim = "disagree_vs_agree"
    # br_neg invariance under positive rescaling
    posts = random_tree_posts(rng, 80)
    means = uniform_means(posts, rng)
    features = compute_feature_table(*mean_matrix(posts, means))
    for c in (0.01, 7.3):
        scaled = {pid: {k: c * v for k, v in vals.items()}
                  for pid, vals in means.items()}
        scaled_features = compute_feature_table(*mean_matrix(posts, scaled))
        assert scaled_features.post_id == features.post_id
        for name in NAMES:
            assert np.array_equal(scaled_features.column("br_neg", name),
                                  features.column("br_neg", name),
                                  equal_nan=True)

    # tree invariants on generated and parsed corpora
    config = SynthConfig(n_discussions=8, mean_posts=20, model="M4",
                         coefficients={dim: (0.1, 0.3)}, sigma=1.0, tau=0.2,
                         seed=77)
    # the breadth-first walk from each root reaches every post once, at
    # the depth the tree records
    generated = generate_corpus(config).corpus
    oracle = oracle_trees(generated.posts.values())
    for did, tree in generated.discussions.items():
        assert list(tree.depth.values()).count(0) == 1
        assert tree.depth == oracle[did].depth
        assert tree.order == oracle[did].order
    parsed, _ = corpus_from_posts(posts)
    oracle = oracle_trees(posts)
    depth = tree_arrays(parsed.parent)[0].tolist()
    starts = parsed.starts.tolist()
    for did, a, b in zip(parsed.discussion_ids, starts, starts[1:]):
        assert depth[a:b].count(0) == 1
        assert dict(zip(parsed.posts[a:b], depth[a:b])) == oracle[did].depth
        assert parsed.posts[a:b] == oracle[did].order

    # tree_arrays' branch root equals the parent-walk oracle on random trees
    for _ in range(20):
        posts = random_tree_posts(rng, int(rng.integers(2, 150)))
        arrays, _ = corpus_from_posts(posts)
        parent = arrays.parent.tolist()
        depth, branch_root, _ = tree_arrays(arrays.parent)
        for i in range(len(parent)):
            walker = i
            while depth[walker] > 1:
                walker = parent[walker]
            assert branch_root[i] == walker
    report("br_neg scale-sign invariance, tree invariants, and "
           "branch-root parent-walk oracle all hold")


def test_end_to_end_determinism(tmp_path):
    corpus_path = DATA_DIR / "synthetic_corpus.jsonl"
    assert corpus_path.exists(), "bundled synthetic corpus missing"
    start = time.perf_counter()
    bundles = []
    for i in (1, 2):
        out = tmp_path / f"bundle{i}"
        code = run_pipeline(corpus_path, tmp_path / f"cache{i}.jsonl", out,
                            PipelineOptions(mock=True, seed=7))
        assert code == 0
        bundles.append(out)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    files = sorted(p.relative_to(bundles[0])
                   for p in bundles[0].rglob("*") if p.is_file())
    other = sorted(p.relative_to(bundles[1])
                   for p in bundles[1].rglob("*") if p.is_file())
    assert files == other
    for rel in files:
        assert (bundles[0] / rel).read_bytes() == \
            (bundles[1] / rel).read_bytes(), rel
    tables = [p for p in files if p.parts[0] == "tables"
              and p.suffix == ".csv"]
    assert len(tables) == 16
    report(f"pipeline on the bundled corpus is byte-identical across runs, "
           f"16 tables present ({elapsed:.1f}s for two runs)")


def test_annotation_protocol():
    # strict-schema rejections
    with pytest.raises(OutOfRange):
        parse_annotation_json(
            '{"disagree_vs_agree": 7, "attacking_vs_respectful": 0,'
            ' "emotional_vs_factual": 0}')
    with pytest.raises(ExtraKey):
        parse_annotation_json(
            '{"disagree_vs_agree": 1, "attacking_vs_respectful": 0,'
            ' "emotional_vs_factual": 0, "confidence": 0.9}')
    with pytest.raises(NonInteger):
        parse_annotation_json(
            '{"disagree_vs_agree": 1.5, "attacking_vs_respectful": 0,'
            ' "emotional_vs_factual": 0}')
    with pytest.raises(NotJson):
        parse_annotation_json("score: 3")

    # cache idempotence: the second run issues zero backend calls
    from conftest import mk_post
    posts = [mk_post("A", timestamp=0)]
    posts += [mk_post(f"B{i}", parent_id="A", timestamp=10 + i)
              for i in range(10)]
    corpus = corpus_from_posts(posts)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "cache.jsonl"
        records1 = annotate_corpus(*corpus, MockBackend(seed=1),
                                   AnnotationCache(cache_path))
        assert records1.requests == 10 * 4  # ten pairs, four replications
        records2 = annotate_corpus(*corpus, MockBackend(seed=1),
                                   AnnotationCache(cache_path))
        assert records2.requests == 0
        assert np.array_equal(records1.scores, records2.scores)

    # mock frequency uniformity over the 11-point scale
    rng = np.random.default_rng(2006)
    counts = Counter()
    n = 10_000
    for _ in range(n):
        counts[mock_annotate(f"p{rng.integers(1 << 30)}",
                             f"c{rng.integers(1 << 30)}",
                             "disagree_vs_agree", 0, seed=5)] += 1
    for value in range(-5, 6):
        assert abs(counts[value] / n - 1 / 11) < 0.02
    report("strict schema rejections, cache idempotence (zero second-run "
           "calls), and mock uniformity within +-0.02 all hold")


def test_rendering_fidelity():
    assert stars_for(0.00011) == "***"
    assert stars_for(0.0152) == "*"
    assert format_p(9.9e-6) == "< 0.00001"
    assert format_p(1e-7) == "< 0.00001"
    assert format_p(0.33300) == "0.33300"
    report('p=0.00011 renders "***", p=0.0152 renders "*", and p < 1e-5 '
           'renders "< 0.00001"')
