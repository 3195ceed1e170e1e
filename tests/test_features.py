import numpy as np
import pytest

from threadtone.corpus import Post
from threadtone.dimensions import DIMENSIONS
from threadtone.errors import MissingAnnotation
from threadtone.features import (
    COLUMNS,
    PER_DIMENSION,
    FeatureTable,
    compute_feature_table,
    read_features_csv,
    write_features_csv,
)

from conftest import (
    mean_matrix,
    mk_post,
    random_tree_posts,
    uniform_means,
)
from corpus_oracle import oracle_trees
from feature_oracle import (
    NegativeDelta,
    br_neg_indicator,
    delta_t_parent,
    delta_t_prev,
    older_sibling_mean,
    order_key,
)

DIM = DIMENSIONS[0].name


def cell(table: FeatureTable, post_id: str, name: str, dim: str = DIM):
    """One table cell as a Python float, or None where it is absent (NaN)."""
    value = float(table.column(name, dim)[table.post_id.index(post_id)])
    return None if np.isnan(value) else value


def flat_means(posts: list[Post], scores: dict[str, float]) -> dict[str, dict[str, float]]:
    """Same score on every dimension, per post."""
    return {pid: {d.name: v for d in DIMENSIONS} for pid, v in scores.items()}


def test_delta_t_prev_examples():
    posts = [mk_post("A", timestamp=0),
             mk_post("B", parent_id="A", timestamp=2 * 3600),
             mk_post("C", parent_id="A", timestamp=5 * 3600)]
    ordered = sorted(posts, key=order_key)
    assert delta_t_prev(posts[2], ordered) == pytest.approx(3.0)
    assert delta_t_prev(posts[0], ordered) is None
    # identical timestamps: the later-ordered post sees a zero gap
    tied = [mk_post("A", timestamp=0),
            mk_post("B", parent_id="A", timestamp=100),
            mk_post("C", parent_id="A", timestamp=100)]
    ordered = sorted(tied, key=order_key)
    assert delta_t_prev(tied[2], ordered) == 0.0


def test_delta_t_parent_examples():
    parent = mk_post("P", timestamp=4 * 3600)
    child = mk_post("C", parent_id="P", timestamp=10 * 3600)
    posts_by_id = {"P": parent, "C": child}
    assert delta_t_parent(child, posts_by_id) == pytest.approx(6.0)
    assert delta_t_parent(mk_post("R"), posts_by_id) is None
    early = mk_post("E", parent_id="P", timestamp=0)
    with pytest.raises(NegativeDelta):
        delta_t_parent(early, {"P": parent, "E": early})


def test_older_sibling_mean_examples(four_node_corpus):
    corpus = [
        mk_post("A", timestamp=0),
        mk_post("s1", parent_id="A", timestamp=1),
        mk_post("s2", parent_id="A", timestamp=2),
        mk_post("s3", parent_id="A", timestamp=3),
        mk_post("s4", parent_id="A", timestamp=4),
    ]
    tree = oracle_trees(corpus)["d1"]
    by_id = {post.post_id: post for post in corpus}
    means = flat_means(corpus, {"s1": -2.0, "s2": 0.0, "s3": 4.0, "s4": 0.0})
    assert older_sibling_mean(by_id["s4"], DIM, tree, by_id, means) == \
        pytest.approx(2.0 / 3.0, abs=1e-9)
    assert older_sibling_mean(by_id["s1"], DIM, tree, by_id, means) is None
    table = compute_feature_table(*mean_matrix(corpus, means))
    assert cell(table, "s4", "sib_older_mean") == \
        pytest.approx(2.0 / 3.0, abs=1e-9)
    assert cell(table, "s1", "sib_older_mean") is None
    means_single = flat_means(corpus, {"s1": 3.0, "s2": 0.0})
    assert older_sibling_mean(by_id["s2"], DIM, tree, by_id, means_single) == 3.0
    table = compute_feature_table(*mean_matrix(corpus, means_single),
                                  strict=False)
    assert cell(table, "s2", "sib_older_mean") == 3.0


def test_br_neg_examples(four_node_corpus):
    tree = oracle_trees(four_node_corpus)["d1"]
    _, b_post, _, d_post = four_node_corpus
    for score, expected in ((-1.25, 1), (0.0, 0), (2.5, 0)):
        means = flat_means(four_node_corpus, {"B": score, "C": 0.0, "D": 0.0})
        assert br_neg_indicator(d_post, DIM, tree, means) == expected
        table = compute_feature_table(*mean_matrix(four_node_corpus, means))
        assert cell(table, "D", "br_neg") == expected
    means = flat_means(four_node_corpus, {"B": -1.0, "C": 0.0, "D": 0.0})
    assert br_neg_indicator(b_post, DIM, tree, means) is None
    table = compute_feature_table(*mean_matrix(four_node_corpus, means))
    assert cell(table, "B", "br_neg") is None


def test_feature_table_presence_walkthrough(four_node_corpus):
    means = flat_means(four_node_corpus, {"B": 1.5, "C": -2.0, "D": 0.25})
    table = compute_feature_table(*mean_matrix(four_node_corpus, means))
    assert set(table.post_id) == {"B", "C", "D"}

    assert cell(table, "C", "sib_older_mean") == 1.5   # B is the older sibling
    assert cell(table, "C", "parent_metric") is None   # parent is the root
    assert cell(table, "C", "br_neg") is None

    assert cell(table, "D", "parent_metric") == 1.5    # B's metric
    assert cell(table, "D", "sib_older_mean") is None
    assert cell(table, "D", "br_neg") == 0             # branch root B scored +1.5

    assert cell(table, "B", "parent_metric") is None
    assert cell(table, "B", "sib_older_mean") is None
    assert cell(table, "B", "br_neg") is None


def test_root_only_corpus_gives_empty_table():
    corpus = [mk_post("A"), mk_post("X", discussion_id="d2")]
    table = compute_feature_table(*mean_matrix(corpus, {}))
    assert len(table) == 0
    assert table.post_id == table.discussion_id == ()
    assert len(table.depth) == 0
    assert table.values.shape == (0, len(COLUMNS))


def test_column_indexes_the_matrix_and_refuses_unknown_names(four_node_corpus):
    means = flat_means(four_node_corpus, {"B": 1.0, "C": 2.0, "D": 3.0})
    table = compute_feature_table(*mean_matrix(four_node_corpus, means))
    for j, key in enumerate(COLUMNS):
        dim = next((d.name for d in DIMENSIONS
                    if key.startswith(d.name + "_")), DIM)
        name = key.removeprefix(dim + "_")
        assert np.shares_memory(table.column(name, dim), table.values[:, j])
        assert table.column(name, dim).flags.c_contiguous
    for name, dim in (("bogus", DIM), ("metric", "bogus"), (DIM, "metric")):
        with pytest.raises(ValueError):
            table.column(name, dim)


def test_strict_vs_lenient_missing_annotation(four_node_corpus):
    means = flat_means(four_node_corpus, {"B": 1.0, "D": 2.0})  # C missing
    with pytest.raises(MissingAnnotation):
        compute_feature_table(*mean_matrix(four_node_corpus, means),
                              strict=True)
    table = compute_feature_table(*mean_matrix(four_node_corpus, means),
                                  strict=False)
    assert set(table.post_id) == {"B", "D"}


def test_negative_delta_rows_are_excluded(caplog):
    corpus = [
        mk_post("A", timestamp=1000),
        mk_post("B", parent_id="A", timestamp=2000),
        mk_post("C", parent_id="B", timestamp=500),  # predates its parent
    ]
    means = flat_means(corpus, {"B": 1.0, "C": 1.0})
    table = compute_feature_table(*mean_matrix(corpus, means), strict=False)
    assert set(table.post_id) == {"B"}


def test_presence_partition_and_dt_bounds():
    rng = np.random.default_rng(11)
    for trial in range(15):
        posts = random_tree_posts(rng, int(rng.integers(2, 80)))
        by_id = {post.post_id: post for post in posts}
        means = uniform_means(posts, rng)
        table = compute_feature_table(*mean_matrix(posts, means))
        root_time = posts[0].timestamp
        for i, post_id in enumerate(table.post_id):
            depth = table.depth[i]
            assert (depth == 1) == (cell(table, post_id, "parent_metric") is None)
            post = by_id[post_id]
            older = [p for p in posts if p.parent_id == post.parent_id
                     and order_key(p) < order_key(post)]
            assert (not older) == (cell(table, post_id, "sib_older_mean") is None)
            assert (depth >= 2) == (cell(table, post_id, "br_neg") is not None)
            # the predecessor is never earlier than the root
            dt_root = (post.timestamp - root_time) / 3600.0
            dt_prev = cell(table, post_id, "dt_prev")
            assert dt_prev is not None
            assert dt_prev <= dt_root + 1e-12


def test_scale_sign_invariance_of_br_neg():
    rng = np.random.default_rng(13)
    posts = random_tree_posts(rng, 60)
    means = uniform_means(posts, rng)
    table = compute_feature_table(*mean_matrix(posts, means))
    for c in (0.1, 3.0, 250.0):
        scaled = {pid: {k: c * v for k, v in vals.items()}
                  for pid, vals in means.items()}
        scaled_table = compute_feature_table(*mean_matrix(posts, scaled))
        assert scaled_table.post_id == table.post_id
        for dim in DIMENSIONS:
            assert np.array_equal(scaled_table.column("br_neg", dim.name),
                                  table.column("br_neg", dim.name),
                                  equal_nan=True)


def test_adding_sibling_at_mean_keeps_mean():
    corpus = [
        mk_post("A", timestamp=0),
        mk_post("s1", parent_id="A", timestamp=1),
        mk_post("s2", parent_id="A", timestamp=2),
        mk_post("s3", parent_id="A", timestamp=3),
        mk_post("s4", parent_id="A", timestamp=4),
    ]
    tree = oracle_trees(corpus)["d1"]
    by_id = {post.post_id: post for post in corpus}
    means = flat_means(corpus, {"s1": -1.0, "s2": 4.0, "s3": 0.0, "s4": 0.0})
    before = older_sibling_mean(by_id["s3"], DIM, tree, by_id, means)
    # give s3 exactly the running mean, then look from s4
    means = flat_means(corpus, {"s1": -1.0, "s2": 4.0, "s3": before, "s4": 0.0})
    after = older_sibling_mean(by_id["s4"], DIM, tree, by_id, means)
    assert after == pytest.approx(before, abs=1e-12)
    table = compute_feature_table(*mean_matrix(corpus, means))
    assert cell(table, "s3", "sib_older_mean") == before
    assert cell(table, "s4", "sib_older_mean") == pytest.approx(before, abs=1e-12)


def test_prev_scope_branch():
    # two branches; within-branch predecessor differs from global one
    corpus = [
        mk_post("A", timestamp=0),
        mk_post("B", parent_id="A", timestamp=1 * 3600),   # branch B
        mk_post("C", parent_id="A", timestamp=2 * 3600),   # branch C
        mk_post("D", parent_id="B", timestamp=3 * 3600),   # in branch B
    ]
    means = flat_means(corpus, {"B": 0.0, "C": 0.0, "D": 0.0})
    table = compute_feature_table(*mean_matrix(corpus, means),
                                  prev_scope="branch")
    # D's predecessor within branch B is B (2 h ago), not C (1 h ago)
    assert cell(table, "D", "dt_prev") == pytest.approx(2.0)
    global_table = compute_feature_table(*mean_matrix(corpus, means))
    assert cell(global_table, "D", "dt_prev") == pytest.approx(1.0)
    # a branch root's predecessor is the discussion root
    assert cell(table, "C", "dt_prev") == pytest.approx(2.0)


def test_feature_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    posts = random_tree_posts(rng, 40)
    means = uniform_means(posts, rng)
    # drop some annotations so that absent cells appear in every column
    for j, pid in enumerate(list(means)[::5]):
        del means[pid][DIMENSIONS[j % len(DIMENSIONS)].name]
    table = compute_feature_table(*mean_matrix(posts, means))
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    loaded = read_features_csv(path)
    assert loaded.post_id == table.post_id
    assert loaded.discussion_id == table.discussion_id
    for got, want in ((loaded.depth, table.depth),
                      (loaded.values, table.values)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
    for kind in PER_DIMENSION:
        for dim in DIMENSIONS:
            assert np.isnan(table.column(kind, dim.name)).any(), (kind, dim)
    # a second write reproduces the bytes
    again = tmp_path / "again.csv"
    write_features_csv(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_output_order_is_deterministic():
    rng = np.random.default_rng(17)
    posts = random_tree_posts(rng, 30, "dB") + random_tree_posts(rng, 20, "dA")
    means = uniform_means(posts, rng)
    table = compute_feature_table(*mean_matrix(posts, means))
    by_id = {post.post_id: post for post in posts}
    keys = [(did, by_id[pid].timestamp, pid)
            for did, pid in zip(table.discussion_id, table.post_id)]
    assert keys == sorted(keys)
