"""Golden hashes of the pipeline's outputs on the bundled corpus.

The determinism tests compare a run with another run of the same code, so a
refactor that changes the output the same way twice passes them. These
hashes were computed once and pin the exact bytes: the whole bundle under
the default options, and ``features.csv`` under ``prev_scope="branch"``,
which the default pipeline never exercises.
"""

import hashlib
from pathlib import Path

from threadtone.report import PipelineOptions, run_pipeline

CORPUS = Path(__file__).resolve().parent.parent / "data" / "synthetic_corpus.jsonl"
SEED = 7

BUNDLE_SHA256 = (
    "05e5af779571e175c6bc4dd1e8358a8b188be5d95d21d683bb9aa167527adf9b")
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
