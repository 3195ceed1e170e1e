import dataclasses
import json
import logging
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from threadtone.annotate import (
    AnnotationCache,
    load_annotation_means,
    pair_content_hash,
)
from threadtone.corpus import PostArrays, serialize_corpus
from threadtone import synth
from threadtone.features import compute_feature_table
from threadtone.workers import run_map
from threadtone.synth import (
    SynthConfig,
    generate_corpus,
    recovery_experiment,
    write_cache_records,
)

from conftest import mean_map, mean_matrix, parse_strict


def small_config(**overrides) -> SynthConfig:
    base = dict(n_discussions=6, mean_posts=15, model="M4",
                coefficients={"disagree_vs_agree": (0.2, 0.4)},
                sigma=0.8, tau=0.3, seed=11)
    base.update(overrides)
    return SynthConfig(**base)


def test_same_seed_same_bytes():
    a = generate_corpus(small_config())
    b = generate_corpus(small_config())
    assert list(serialize_corpus(a.corpus)) == list(serialize_corpus(b.corpus))
    assert list(a.cache_records) == list(b.cache_records)
    assert np.array_equal(a.mean_matrix, b.mean_matrix, equal_nan=True)
    c = generate_corpus(small_config(seed=12))
    assert list(serialize_corpus(c.corpus)) != list(serialize_corpus(a.corpus))


def test_generated_corpus_validates():
    result = generate_corpus(small_config())
    for did, tree in result.corpus.discussions.items():
        assert list(tree.depth) == list(tree.order)
        for pid, depth in tree.depth.items():
            post = result.corpus.posts[pid]
            if depth == 0:
                assert post.parent_id is None
            else:
                parent = result.corpus.posts[post.parent_id]
                assert post.timestamp >= parent.timestamp
                assert tree.depth[post.parent_id] == depth - 1


def test_identity_propagation_noiseless():
    # M4 with coefficients (0, 1): children copy their parent exactly
    config = small_config(sigma=0.0, tau=0.0, continuous=True,
                          coefficients={d: (0.0, 1.0) for d in
                                        ("disagree_vs_agree",
                                         "attacking_vs_respectful",
                                         "emotional_vs_factual")})
    result = generate_corpus(config)
    means = mean_map(result.arrays, result.mean_matrix)
    for did in result.corpus.discussion_ids():
        tree = result.corpus.discussions[did]
        for pid, depth in tree.depth.items():
            if depth < 2:
                continue
            parent_id = result.corpus.posts[pid].parent_id
            assert means[pid] == means[parent_id]


def test_replication_scores_are_integers_with_exact_mean():
    result = generate_corpus(small_config())
    by_key: dict[tuple, dict[int, int]] = {}
    for rec in result.cache_records:
        assert isinstance(rec["score"], int)
        assert -5 <= rec["score"] <= 5
        by_key.setdefault((rec["pair_hash"], rec["dimension"]), {})[
            rec["replication"]] = rec["score"]
    for reps in by_key.values():
        assert set(reps) == {0, 1, 2, 3}
    # per-pair replication mean equals the stored post mean
    means_from_cache = {key: sum(reps.values()) / 4 for key, reps in by_key.items()}
    stored = sorted(result.mean_matrix[result.arrays.parent >= 0].ravel().tolist())
    cached = sorted(means_from_cache.values())
    assert stored == pytest.approx(cached, abs=1e-12)


def test_cache_loads_through_annotation_layer(tmp_path):
    result = generate_corpus(small_config())
    path = tmp_path / "cache.jsonl"
    write_cache_records(result.cache_records, path)
    posts, texts = parse_strict(serialize_corpus(result.corpus))
    means = load_annotation_means(posts, texts, AnnotationCache(path))
    assert posts.posts == result.arrays.posts
    assert np.array_equal(means, result.mean_matrix, equal_nan=True)


def test_truncation_counting():
    wild = small_config(coefficients={"disagree_vs_agree": (4.0, 1.0)},
                        sigma=3.0)
    result = generate_corpus(wild)
    assert result.truncations > 0
    tame = small_config(sigma=0.5, tau=0.1,
                        coefficients={"disagree_vs_agree": (0.0, 0.3)})
    n_scores = 0
    result = generate_corpus(tame)
    n_scores = np.count_nonzero(~np.isnan(result.mean_matrix))
    assert result.truncations / n_scores < 0.01


def test_continuous_mode_has_no_cache():
    result = generate_corpus(small_config(continuous=True))
    assert result.cache_records is None
    values = result.mean_matrix[result.arrays.parent >= 0].ravel().tolist()
    assert any(v != round(v) for v in values)


def test_recovery_zero_bias_noiseless():
    config = small_config(sigma=0.0, tau=0.0, continuous=True,
                          coefficients={"disagree_vs_agree": (0.3, 0.5)})
    report = recovery_experiment(config, n_runs=5)
    assert report.n_failed == 0
    for result in report.results:
        assert abs(result.bias) < 1e-8
        assert result.coverage == 1.0


def test_recovery_never_builds_cache_records(monkeypatch):
    def no_hashing(*args):
        raise AssertionError("recovery_experiment hashed a pair")

    monkeypatch.setattr(synth, "pair_content_hash", no_hashing)
    report = recovery_experiment(small_config(), n_runs=2)
    assert report.n_failed == 0
    with pytest.raises(AssertionError, match="hashed a pair"):
        generate_corpus(small_config()).cache_records


def test_recovery_builds_no_post_objects(monkeypatch):
    def no_objects(*args):
        raise AssertionError("recovery_experiment built Python objects")

    monkeypatch.setattr(synth, "Post", no_objects)
    monkeypatch.setattr(synth, "DiscussionTree", no_objects)
    for name in ("corpus", "cache_records"):
        monkeypatch.setattr(synth.SynthResult, name, property(no_objects))
    report = recovery_experiment(small_config(), n_runs=2)
    assert report.n_failed == 0
    with pytest.raises(AssertionError, match="built Python objects"):
        generate_corpus(small_config()).corpus


def test_cache_records_build_no_post_objects(monkeypatch):
    def no_objects(*args):
        raise AssertionError("cache_records built Python objects")

    for name in ("Post", "DiscussionTree", "Corpus"):
        monkeypatch.setattr(synth, name, no_objects)
    monkeypatch.setattr(synth.SynthResult, "corpus", property(no_objects))
    records = generate_corpus(small_config()).cache_records
    monkeypatch.undo()
    posts = generate_corpus(small_config()).corpus.posts
    scale = small_config().scale
    assert records.pair_hashes == [
        pair_content_hash(posts[post.parent_id].text, post.text, scale)
        for post in posts.values() if post.parent_id is not None]


PAPER_CONFIG = Path(__file__).resolve().parents[1] / "data" / "synth_config.json"


def set_cpus(monkeypatch, n: int) -> None:
    """Make recovery_experiment see ``n`` CPUs in its affinity mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def logged(caplog) -> list[tuple[str, int, str]]:
    return [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def test_pooled_recovery_matches_the_in_process_one(monkeypatch, tmp_path,
                                                    caplog):
    pids = tmp_path / "pids"

    def generate_and_record(config):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return generate_corpus(config)

    paper = SynthConfig.from_json(PAPER_CONFIG)
    failing = small_config(n_discussions=1)   # the t reference needs two
    set_cpus(monkeypatch, 1)
    in_process = recovery_experiment(paper, n_runs=4)
    with caplog.at_level(logging.WARNING, logger="threadtone.synth"):
        failed_in_process = recovery_experiment(failing, n_runs=5)
    logged_in_process = logged(caplog)
    caplog.clear()

    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(synth, "generate_corpus", generate_and_record)
    pooled = recovery_experiment(paper, n_runs=4)
    ran_in = pids.read_text(encoding="utf-8").split()
    assert len(ran_in) == 4 and str(os.getpid()) not in ran_in
    assert repr(pooled) == repr(in_process)
    with caplog.at_level(logging.WARNING, logger="threadtone.synth"):
        failed_pooled = recovery_experiment(failing, n_runs=5)
    assert failed_pooled.n_failed == failed_in_process.n_failed == 5
    # the records logged inside each run, then that run's own warning
    assert logged(caplog) == logged_in_process == [
        record for run in range(5) for record in (
            ("threadtone.regression", logging.WARNING,
             "cluster-robust vcov with a single cluster"),
            ("threadtone.synth", logging.WARNING,
             f"run {run} (disagree_vs_agree): need at least 2 clusters "
             f"for t-based p-values"))]


def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_a_call(
        monkeypatch):
    overflowing = small_config(mean_hours_between_posts=1e16)
    set_cpus(monkeypatch, 1)
    with pytest.raises(ValueError, match="overflow") as in_process:
        recovery_experiment(overflowing, n_runs=4)

    set_cpus(monkeypatch, 2)
    assert recovery_experiment(small_config(), n_runs=4).n_failed == 0
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError) as pooled:
        recovery_experiment(overflowing, n_runs=4)
    assert type(pooled.value) is type(in_process.value)
    assert str(pooled.value) == str(in_process.value)
    worker_traceback = str(pooled.value.__cause__)
    assert worker_traceback.startswith("Traceback")
    assert worker_traceback.endswith(str(in_process.value))
    assert multiprocessing.active_children() == []


def _log_a_caught_error(item: int) -> int:
    try:
        raise KeyError(item)
    except KeyError:
        logging.getLogger("threadtone.test").exception("item %d", item)
    return item


def test_pooled_records_keep_their_attributes(monkeypatch, caplog):
    def seen() -> list[tuple]:
        return [(r.name, r.levelno, r.getMessage(), r.pathname, r.lineno,
                 r.funcName, logging.Formatter().format(r))
                for r in caplog.records]

    runs = {}
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="threadtone.test"), \
                run_map(2) as mapped:
            assert list(mapped(_log_a_caught_error, [1, 2])) == [1, 2]
        runs[cpus] = seen()
    assert runs[2] == runs[1]
    assert [r[5] for r in runs[2]] == ["_log_a_caught_error"] * 2
    assert runs[2][0][6].startswith("item 1\nTraceback")
    assert runs[2][0][6].endswith("KeyError: 1")


@pytest.mark.parametrize("overrides", (
    # "d1000" sorts between "d100" and "d101"
    {"n_discussions": 1_005, "mean_posts": 3},
    # past p9999 the index order is not the (timestamp, post_id) order
    {"n_discussions": 2, "mean_posts": 10_300,
     "mean_hours_between_posts": 0.0001},
))
def test_generator_arrays_match_the_corpus(overrides):
    result = generate_corpus(small_config(model="M6", coefficients={
        "disagree_vs_agree": (-0.9, 0.33, -0.4, -0.19)}, **overrides))
    derived, texts = parse_strict(serialize_corpus(result.corpus))
    assert texts == synth._texts(result.arrays)
    for field in dataclasses.fields(PostArrays):
        got, want = getattr(result.arrays, field.name), getattr(derived,
                                                                field.name)
        if isinstance(want, tuple):
            assert got == want, field.name
        else:
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
    if overrides["n_discussions"] > 1_000:
        assert result.arrays.discussion_ids[100:102] == ("d100", "d1000")
    else:
        assert max(np.diff(result.arrays.starts)) > 10_000
    from_arrays = compute_feature_table(result.arrays, result.mean_matrix)
    from_corpus = compute_feature_table(*mean_matrix(
        result.corpus.posts.values(), mean_map(result.arrays,
                                               result.mean_matrix)))
    assert from_arrays.post_id == from_corpus.post_id
    assert from_arrays.discussion_id == from_corpus.discussion_id
    for got, want in ((from_arrays.depth, from_corpus.depth),
                      (from_arrays.values, from_corpus.values)):
        assert np.array_equal(got, want, equal_nan=True)


def test_recovery_m1_small_slope_unbiased():
    # slope of the order reported for timing effects (~2e-4 per hour)
    config = SynthConfig(n_discussions=20, mean_posts=20, model="M1",
                         coefficients={"disagree_vs_agree": (0.1, 0.0002)},
                         sigma=1.0, tau=0.3, seed=42, continuous=True)
    report = recovery_experiment(config, n_runs=200)
    slope = next(r for r in report.results if r.term == "dt_prev")
    mc_se = slope.sd_estimate / (200 ** 0.5)
    assert abs(slope.bias) < 2 * mc_se


def test_recovery_report_json(tmp_path):
    config = small_config(continuous=True)
    report = recovery_experiment(config, n_runs=3)
    path = tmp_path / "recovery.json"
    report.to_json(path)
    loaded = json.loads(path.read_text())
    assert loaded["model"] == "M4"
    assert loaded["n_runs"] == 3
    assert {r["term"] for r in loaded["results"]} == {"intercept", "parent_metric"}


def test_config_json_round_trip(tmp_path):
    config = small_config(model="M6",
                          coefficients={"disagree_vs_agree": (1.0, 2.0, 3.0, 4.0)})
    path = tmp_path / "config.json"
    config.to_json(path)
    assert SynthConfig.from_json(path) == config


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(sigma=-1.0)
    with pytest.raises(ValueError):
        small_config(p_reply_to_root=1.5)
    with pytest.raises(ValueError):
        small_config(model="M9")
    with pytest.raises(ValueError):
        small_config(model="M6", coefficients={"disagree_vs_agree": (1.0, 2.0)})


NAN = float("nan")


@pytest.mark.parametrize("override", (
    {"mean_posts": NAN}, {"mean_posts": float("inf")}, {"mean_posts": 0.5},
    {"mean_hours_between_posts": -1.0}, {"mean_hours_between_posts": NAN},
    {"sigma": NAN}, {"tau": float("inf")},
    {"scale_min": 1}, {"scale_max": -2}, {"scale_min": -2.5},
    {"n_discussions": 2.5}, {"replications": True}, {"seed": -1},
    {"coefficients": {"disagreement": (0.0, 1.0)}},
    {"coefficients": {"disagree_vs_agree": (0.0, float("inf"))}},
    {"coefficients": {"disagree_vs_agree": (NAN, 1.0)}},
    {"scale_min": -128}, {"scale_max": 128},
))
def test_config_rejects_values_that_would_fail_mid_generation(override):
    with pytest.raises(ValueError):
        small_config(**override)


def test_timestamps_that_overflow_64_bits_raise():
    with pytest.raises(ValueError, match="overflow"):
        generate_corpus(small_config(mean_hours_between_posts=1e16))


def test_config_accepts_zero_gaps_and_noise():
    generate_corpus(small_config(mean_hours_between_posts=0.0, sigma=0.0,
                                 tau=0.0))


def test_corpus_scale_matches_config():
    config = SynthConfig(n_discussions=60, mean_posts=38, seed=5,
                         coefficients={"disagree_vs_agree": (0.0, 0.2)})
    result = generate_corpus(config)
    n_posts = len(result.corpus.posts)
    assert len(result.corpus.discussions) == 60
    assert 2000 < n_posts < 2700  # ~ 60 * 38


def test_feature_table_from_synth_has_all_presence_classes():
    result = generate_corpus(small_config(n_discussions=10, mean_posts=25))
    features = compute_feature_table(result.arrays, result.mean_matrix)
    dim = "disagree_vs_agree"
    assert np.isnan(features.column("parent_metric", dim)).any()
    assert (~np.isnan(features.column("parent_metric", dim))).any()
    assert (~np.isnan(features.column("sib_older_mean", dim))).any()
    assert (features.column("br_neg", dim) == 1).any()
    assert (features.column("br_neg", dim) == 0).any()
