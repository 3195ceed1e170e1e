"""The benchmark's set-up still runs on the package.

``perfbench/run.py`` builds its inputs through ``SynthResult.corpus``,
``Corpus(...)``, ``DiscussionTree.depth`` and ``save_corpus``. This runs
each workload's set-up at toy size and checks the input properties it
records against the generator's arrays, so a change to that part of the
package fails here and not first in a benchmark run. It also installs the
layer tracer, which raises if one of its targets is gone, and checks that
a traced ``validate_corpus`` call records its span.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from threadtone.corpus import load_corpus, tree_arrays
from threadtone.synth import generate_corpus

ROOT = Path(__file__).resolve().parents[1]
RUN_PY = ROOT / "perfbench" / "run.py"
SEED = 11


@pytest.fixture(scope="module")
def run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def expected(arrays, keep=None) -> dict:
    """Posts, maximum depth and pairs of the discussions ``keep`` (all by
    default) of a generated corpus's arrays."""
    starts = arrays.starts.tolist()
    depth = tree_arrays(arrays.parent)[0]
    spans = [(a, b) for did, a, b in zip(arrays.discussion_ids, starts,
                                         starts[1:])
             if keep is None or did in keep]
    posts = sum(b - a for a, b in spans)
    return {"discussions": len(spans), "posts": posts,
            "max_depth": max(int(depth[a:b].max()) for a, b in spans),
            "pairs": posts - len(spans)}


def recorded(properties: dict) -> dict:
    return {key: properties[key]
            for key in ("discussions", "posts", "max_depth", "pairs")}


def test_warm_deep_setup(run, tmp_path):
    inputs = run.setup_warm_deep(tmp_path, SEED, "toy")
    n_discussions, mean_posts = run.SIZES["toy"]["warm-deep"]
    arrays = generate_corpus(dataclasses.replace(
        run.paper_config(), n_discussions=n_discussions,
        mean_posts=mean_posts, seed=SEED)).arrays
    properties = run.input_properties(inputs)
    assert recorded(properties) == expected(arrays)
    assert properties["cache_lines"] == 12 * properties["pairs"]
    assert np.array_equal(load_corpus(inputs.corpus)[0].parent, arrays.parent)


def test_cold_http_setup(run, tmp_path):
    inputs = run.setup_cold_http(tmp_path, SEED, "toy")
    try:
        assert inputs.stub_url.startswith("http://127.0.0.1:")
        properties = run.input_properties(inputs)
    finally:
        inputs.close()
    target = run.SIZES["toy"]["cold-http"]
    config = run.paper_config()
    arrays = generate_corpus(dataclasses.replace(
        config, n_discussions=int(2 * target / config.mean_posts),
        seed=SEED)).arrays
    # first fit, in discussion id order, under the post target
    kept, total = set(), 0
    for did, size in zip(arrays.discussion_ids, np.diff(arrays.starts).tolist()):
        if total + size <= target:
            kept.add(did)
            total += size
    assert recorded(properties) == expected(arrays, kept)
    assert properties["expected_requests"] == 4 * properties["pairs"]
    assert load_corpus(inputs.corpus)[0].discussion_ids == tuple(sorted(kept))


def test_recovery_m6_setup(run, tmp_path):
    inputs = run.setup_recovery_m6(tmp_path, SEED, "toy")
    first_seed = int(np.random.SeedSequence([SEED, 0]).generate_state(1)[0])
    arrays = generate_corpus(dataclasses.replace(
        run.paper_config(), seed=first_seed)).arrays
    properties = run.input_properties(inputs)
    assert recorded(properties) == expected(arrays)
    assert properties["corpora_per_iteration"] == 1


def test_the_layer_tracer_installs_and_records_a_validate_span():
    # in a process of its own, since install patches the package's modules
    script = textwrap.dedent("""
        import json, sys
        sys.path.insert(0, sys.argv[1])
        import layertrace
        from threadtone import corpus
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        _, _, diagnostics = corpus.validate_corpus(sys.argv[2])
        print(json.dumps([[span[0] for span in tracer.spans], diagnostics]))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "perfbench"),
         str(ROOT / "data" / "synthetic_corpus.jsonl")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["corpus.validate"], []]
