"""Golden hashes of the pipeline's outputs on the bundled corpus.

The determinism tests compare a run with another run of the same code, so a
refactor that changes the output the same way twice passes them. These
hashes were computed once and pin the exact bytes: the whole bundle under
the default options, and ``features.csv`` under ``prev_scope="branch"``,
which the default pipeline never exercises. The synthetic generator is
pinned the same way: its bundled-config corpus, replication cache and
truncation count, and a short recovery experiment's report.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from threadtone.corpus import save_corpus
from threadtone.report import PipelineOptions, run_pipeline
from threadtone.synth import (
    SynthConfig,
    generate_corpus,
    recovery_experiment,
    write_cache_records,
)

CORPUS = Path(__file__).resolve().parent.parent / "data" / "synthetic_corpus.jsonl"
SEED = 7

# re-pinned when agreement.csv's alpha and kappa cells changed from
# "np.float64(x)" to "x", and when the figure bands took the tables' t
# critical value (60 clusters: 2.00100 in place of 1.96), which moved only
# the <polygon> line of each figures/*.svg, and when the fits moved to
# numpy.linalg, which moved 31 of the 120 tables/*.csv cells and one
# r_squared in regression_summary.json by at most 5.6e-14 relative, and
# when the t tail moved from scipy.special.stdtr to the standard library,
# which moved 31 p_value cells of tables/*.csv by at most 5.8e-15 relative
# and no star, and when the pipeline keyed agreement items and the
# manifest's annotations_sha256 by pair hash instead of post id, which moved
# the last digits of 3 pct_within_1 cells and 1 mapd_mean cell of
# agreement.csv (the items are summed in another order) and the
# annotations_sha256 line of manifest.json
BUNDLE_SHA256 = (
    "ca463138ebaeab7adbc64dfa70e37a623bd4c5ecc5c33336641bfd9f0f9764bb")
BRANCH_FEATURES_SHA256 = (
    "2a7f39241afe55d67365af28795e47dde611ccbcdee064fe5c25b23e10698df6")


def tree_sha256(root: Path) -> str:
    """sha256 over (sorted relative path, bytes) of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\x00")
        data = path.read_bytes()
        h.update(str(len(data)).encode("ascii") + b"\x00")
        h.update(data)
    return h.hexdigest()


def run_mock(tmp_path: Path, **options) -> Path:
    out = tmp_path / "bundle"
    code = run_pipeline(CORPUS, tmp_path / "cache.jsonl", out,
                        PipelineOptions(mock=True, seed=SEED, **options))
    assert code == 0
    return out


def test_bundle_golden_hash(tmp_path):
    assert tree_sha256(run_mock(tmp_path)) == BUNDLE_SHA256


def test_branch_scope_features_golden_hash(tmp_path):
    out = run_mock(tmp_path, prev_scope="branch")
    digest = hashlib.sha256((out / "features.csv").read_bytes()).hexdigest()
    assert digest == BRANCH_FEATURES_SHA256


SYNTH_CONFIG = CORPUS.parent / "synth_config.json"
SYNTH_CACHE_SHA256 = (
    "ae7cccdfdbeb8ac2a3ee084ea53c0d53305c7c0dad8dd5bfcc0fb99aed69a112")
SYNTH_CACHE_LINES = 27_216
SYNTH_TRUNCATIONS = 47
# re-pinned when the fits moved to numpy.linalg: same n_failed and
# coverage, estimates within 1.1e-14 relative
RECOVERY_SHA256 = (
    "c347ba4734141ebe2afc8cba17660cf820cd000ec0b0af2dc9652dc9c789e95a")


def test_synth_generator_golden(tmp_path):
    """The bundled corpus is the generator's output for the bundled config;
    the replication cache and the truncation count are pinned with it."""
    result = generate_corpus(SynthConfig.from_json(SYNTH_CONFIG))
    save_corpus(result.corpus, tmp_path / "corpus.jsonl")
    write_cache_records(result.cache_records, tmp_path / "cache.jsonl")
    assert (tmp_path / "corpus.jsonl").read_bytes() == CORPUS.read_bytes()
    cache = (tmp_path / "cache.jsonl").read_bytes()
    assert cache.count(b"\n") == SYNTH_CACHE_LINES
    assert hashlib.sha256(cache).hexdigest() == SYNTH_CACHE_SHA256
    assert result.truncations == SYNTH_TRUNCATIONS


def test_recovery_experiment_golden():
    report = recovery_experiment(SynthConfig.from_json(SYNTH_CONFIG), n_runs=3)
    text = json.dumps(asdict(report), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECOVERY_SHA256
