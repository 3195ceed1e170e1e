"""Property tests: ``synth.generate_corpus`` against the reference generator
in ``synth_oracle``.

Configurations vary the model, continuous mode, the replication count, the
scale, both noise levels (including 0), the reply-to-root probability
(including 0 and 1), small and tied-timestamp discussions, model ids that
need JSON escaping, and coefficients large enough to clip. Every comparison
is exact: the serialized corpus, the replication records, the truncation
count, and the means by ``repr`` so that the sign of a zero counts. Every
tree of the generated corpus must have the ``order`` and ``depth`` that the
breadth-first ``build_tree`` in ``corpus_oracle`` derives from its posts.
The cache file ``write_cache_records`` writes from the record columns must
be the bytes of the per-record writer in ``writer_oracle``, for 1-4
replications, any model id and scales both narrower and wider than -5..5.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threadtone.corpus import serialize_corpus
from threadtone.dimensions import DIMENSIONS
from threadtone.regression import MODEL_IDS, MODEL_SPECS
from threadtone.synth import SynthConfig, generate_corpus, write_cache_records

import writer_oracle
from conftest import mean_map
from corpus_oracle import build_tree
from synth_oracle import oracle_generate_corpus

DIM_NAMES = [d.name for d in DIMENSIONS]

coefficients = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                         st.floats(-8.0, 8.0, allow_nan=False))
noise = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                  st.floats(0.0, 4.0, allow_nan=False))


@st.composite
def synth_configs(draw) -> SynthConfig:
    model = draw(st.sampled_from(MODEL_IDS))
    n_coefs = 1 + len(MODEL_SPECS[model].terms)
    dims = draw(st.lists(st.sampled_from(DIM_NAMES), unique=True))
    return SynthConfig(
        n_discussions=draw(st.integers(1, 3)),
        mean_posts=draw(st.one_of(st.sampled_from([1, 2, 3]),
                                  st.floats(1.0, 16.0))),
        p_reply_to_root=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                       st.floats(0.0, 1.0))),
        mean_hours_between_posts=draw(st.sampled_from([0.0001, 0.5, 6.0])),
        model=model,
        coefficients={d: tuple(draw(st.lists(coefficients, min_size=n_coefs,
                                             max_size=n_coefs)))
                      for d in dims},
        sigma=draw(noise), tau=draw(noise),
        seed=draw(st.integers(0, 2**32 - 1)),
        scale_min=draw(st.sampled_from([-1, -3, -5])),
        scale_max=draw(st.sampled_from([1, 3, 5])),
        replications=draw(st.integers(1, 5)),
        continuous=draw(st.booleans()),
        model_id=draw(st.sampled_from(["mock", 'm"q\\x', "modèle\n\t"])),
    )


def means_repr(means) -> str:
    # float() keeps the sign of a zero; the oracle's continuous-mode means
    # are numpy scalars, whose repr differs from a float's
    return repr({pid: {name: float(v) for name, v in by_dim.items()}
                 for pid, by_dim in sorted(means.items())})


def assert_trees_match_oracle(corpus) -> None:
    by_discussion = {}
    for post in corpus.posts.values():
        by_discussion.setdefault(post.discussion_id, []).append(post)
    assert list(corpus.discussions) == sorted(by_discussion)
    for did, posts in by_discussion.items():
        tree, expected = corpus.discussions[did], build_tree(posts)
        assert (tree.order, tree.depth) == (expected.order, expected.depth)
        assert list(tree.depth) == list(tree.order)


def assert_matches_oracle(config: SynthConfig) -> None:
    result = generate_corpus(config)
    assert_trees_match_oracle(result.corpus)
    oracle = oracle_generate_corpus(config)
    assert (list(serialize_corpus(result.corpus))
            == list(serialize_corpus(oracle.corpus)))
    assert list(result.corpus.posts) == list(oracle.corpus.posts)
    assert (means_repr(mean_map(result.arrays, result.mean_matrix))
            == means_repr(oracle.means))
    records = result.cache_records
    assert (repr(None if records is None else list(records))
            == repr(oracle.cache_records))
    assert result.truncations == oracle.truncations


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(synth_configs())
def test_generate_corpus_matches_oracle(config):
    assert_matches_oracle(config)


model_ids = st.one_of(
    st.sampled_from(["mock", 'm"q\\x', "modèle\n\t", "模型 \U0001f600",
                     "\x00\x7f\u2028"]),
    st.text(max_size=8))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(synth_configs(), st.integers(1, 4), model_ids,
       st.sampled_from([(-5, 5), (-1, 9), (-12, 3), (-2, 2)]))
def test_cache_file_matches_the_per_record_writer(config, replications,
                                                  model_id, scale):
    config = dataclasses.replace(config, replications=replications,
                                 model_id=model_id, scale_min=scale[0],
                                 scale_max=scale[1])
    records = generate_corpus(config).cache_records
    if config.continuous:
        assert records is None
        return
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp, "ours.jsonl"), Path(tmp, "oracle.jsonl")
        write_cache_records(records, ours)
        writer_oracle.write_cache_records(records, oracle)
        assert ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("continuous", [False, True])
@pytest.mark.parametrize("model", MODEL_IDS)
def test_paper_like_configs_match_oracle(model, continuous):
    n_coefs = 1 + len(MODEL_SPECS[model].terms)
    coefs = (-0.9, 0.33, -0.4, -0.19)[:n_coefs]
    config = SynthConfig(n_discussions=8, mean_posts=38, model=model,
                         coefficients={"disagree_vs_agree": coefs,
                                       "emotional_vs_factual": coefs[::-1]},
                         sigma=1.0, tau=0.15, seed=20240301,
                         continuous=continuous)
    assert_matches_oracle(config)


def test_over_ten_thousand_tied_posts_keep_the_timestamp_id_order():
    # most gaps truncate to 0 s, so p10000 ties p9999 and, by id, sorts
    # before it: past p9999 the index order is not the (timestamp, id) order
    config = SynthConfig(n_discussions=1, mean_posts=10_300,
                         mean_hours_between_posts=0.0001, model="M6",
                         coefficients={"disagree_vs_agree":
                                       (-0.9, 0.33, -0.4, -0.19)},
                         seed=1)
    assert_matches_oracle(config)
    tree = generate_corpus(config).corpus.discussions["d000"]
    assert len(tree.order) > 10_000
    assert tree.order.index("d000-p10000") < tree.order.index("d000-p9999")


@pytest.mark.parametrize("mean_posts", (2, 60))
@pytest.mark.parametrize("model", ("M5", "M6"))
def test_uneven_discussions_match_oracle(model, mean_posts):
    # the recursion steps over the reply index across all discussions, and
    # discussions of different lengths drop out of it at different steps
    config = SynthConfig(n_discussions=12, mean_posts=mean_posts, model=model,
                         coefficients={"disagree_vs_agree":
                                       (-0.9, 0.33, -0.4, -0.19)},
                         sigma=1.0, tau=0.3, seed=77)
    assert_matches_oracle(config)
