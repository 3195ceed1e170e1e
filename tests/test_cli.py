import json
import subprocess
import sys

import pytest

from threadtone.corpus import save_corpus
from threadtone.synth import SynthConfig, generate_corpus, write_cache_records


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "threadtone.cli", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def synth_setup(tmp_path):
    config = SynthConfig(n_discussions=5, mean_posts=12, model="M4",
                         coefficients={"disagree_vs_agree": (0.1, 0.4)},
                         sigma=0.8, tau=0.3, seed=3)
    config_path = tmp_path / "config.json"
    config.to_json(config_path)
    result = generate_corpus(config)
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(result.corpus, corpus_path)
    cache_path = tmp_path / "synth_cache.jsonl"
    write_cache_records(result.cache_records, cache_path)
    return tmp_path, config_path, corpus_path, cache_path


def test_validate_ok(synth_setup):
    _, _, corpus_path, _ = synth_setup
    proc = run_cli("validate", "--corpus", str(corpus_path))
    assert proc.returncode == 0
    assert "ok:" in proc.stdout


def test_validate_structural_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"post_id": "A", "discussion_id": "d", "parent_id": null,'
        ' "author": null, "timestamp": 0, "text": "r"}\n'
        '{"post_id": "B", "discussion_id": "d", "parent_id": "GONE",'
        ' "author": null, "timestamp": 5, "text": "x"}\n')
    proc = run_cli("validate", "--corpus", str(bad))
    assert proc.returncode == 2
    assert "OrphanPost" in proc.stdout
    lenient = run_cli("validate", "--corpus", str(bad), "--lenient")
    assert lenient.returncode == 0


def test_synth_generate_and_recover(synth_setup):
    tmp_path, config_path, _, _ = synth_setup
    corpus_out = tmp_path / "gen.jsonl"
    cache_out = tmp_path / "gen_cache.jsonl"
    proc = run_cli("synth", "--config", str(config_path),
                   "--out-corpus", str(corpus_out),
                   "--out-cache", str(cache_out))
    assert proc.returncode == 0, proc.stderr
    assert corpus_out.exists() and cache_out.exists()
    assert run_cli("validate", "--corpus", str(corpus_out)).returncode == 0

    recover_out = tmp_path / "recovery.json"
    proc = run_cli("synth", "recover", "--config", str(config_path),
                   "--runs", "3", "--out", str(recover_out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(recover_out.read_text())["n_runs"] == 3


def test_annotate_features_agreement_regress_report(synth_setup):
    tmp_path, _, corpus_path, _ = synth_setup
    cache_path = tmp_path / "mock_cache.jsonl"
    proc = run_cli("annotate", "--corpus", str(corpus_path),
                   "--cache", str(cache_path), "--mock", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert cache_path.exists()

    features_path = tmp_path / "features.csv"
    proc = run_cli("features", "--corpus", str(corpus_path),
                   "--annotations", str(cache_path),
                   "--out", str(features_path))
    assert proc.returncode == 0, proc.stderr
    header = features_path.read_text().splitlines()[0]
    assert header.startswith("post_id,discussion_id,depth,dt_prev,dt_parent")

    agreement_path = tmp_path / "agreement.csv"
    proc = run_cli("agreement", "--cache", str(cache_path),
                   "--out", str(agreement_path))
    assert proc.returncode == 0, proc.stderr
    assert agreement_path.read_text().startswith("dimension,")

    regress_dir = tmp_path / "regress"
    proc = run_cli("regress", "--features", str(features_path),
                   "--model", "M4", "--dimension", "disagree_vs_agree",
                   "--out", str(regress_dir))
    assert proc.returncode == 0, proc.stderr
    assert (regress_dir / "M4_disagree_vs_agree.csv").exists()
    summary = json.loads((regress_dir / "regression_summary.json").read_text())
    assert "M4/disagree_vs_agree" in summary["models"]

    report_dir = tmp_path / "report"
    proc = run_cli("report", "--features", str(features_path),
                   "--cache", str(cache_path),
                   "--output-dir", str(report_dir))
    assert proc.returncode == 0, proc.stderr
    assert len(list((report_dir / "tables").glob("*.txt"))) == 16
    assert len(list((report_dir / "figures").glob("*.svg"))) == 12
    assert (report_dir / "agreement.csv").exists()


def test_mixed_model_cache_exits_with_annotation_code(synth_setup):
    tmp_path, _, corpus_path, synth_cache = synth_setup
    features_path = tmp_path / "features.csv"
    proc = run_cli("features", "--corpus", str(corpus_path),
                   "--annotations", str(synth_cache),
                   "--out", str(features_path))
    assert proc.returncode == 0, proc.stderr
    first = json.loads(synth_cache.read_text().splitlines()[0])
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text(synth_cache.read_text()
                     + json.dumps({**first, "model": "other-model"}) + "\n")
    for args in (("features", "--corpus", str(corpus_path),
                  "--annotations", str(mixed),
                  "--out", str(tmp_path / "f2.csv")),
                 ("agreement", "--cache", str(mixed),
                  "--out", str(tmp_path / "a.csv")),
                 ("report", "--features", str(features_path),
                  "--cache", str(mixed), "--output-dir", str(tmp_path / "r"))):
        proc = run_cli(*args)
        assert proc.returncode == 3, (args[0], proc.stderr)
        assert first["model"] in proc.stderr and "other-model" in proc.stderr


def test_regress_all_grid(synth_setup):
    tmp_path, _, corpus_path, synth_cache = synth_setup
    features_path = tmp_path / "features.csv"
    run_cli("features", "--corpus", str(corpus_path),
            "--annotations", str(synth_cache), "--out", str(features_path))
    out_dir = tmp_path / "tables"
    proc = run_cli("regress", "--features", str(features_path),
                   "--out", str(out_dir))
    assert proc.returncode == 0, proc.stderr
    assert len(list(out_dir.glob("M*.csv"))) == 16


def test_pipeline_cli_and_failure_codes(synth_setup):
    tmp_path, _, corpus_path, _ = synth_setup
    out = tmp_path / "bundle"
    proc = run_cli("pipeline", "--corpus", str(corpus_path),
                   "--cache", str(tmp_path / "c.jsonl"),
                   "--output-dir", str(out), "--mock", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.json").exists()

    no_backend = run_cli("pipeline", "--corpus", str(corpus_path),
                         "--cache", str(tmp_path / "c2.jsonl"),
                         "--output-dir", str(tmp_path / "bundle2"))
    assert no_backend.returncode == 3


def test_pipeline_cli_byte_determinism(synth_setup):
    tmp_path, _, corpus_path, _ = synth_setup
    outs = []
    for i in (1, 2):
        out = tmp_path / f"det{i}"
        proc = run_cli("pipeline", "--corpus", str(corpus_path),
                       "--cache", str(tmp_path / f"det_cache{i}.jsonl"),
                       "--output-dir", str(out), "--mock", "--seed", "11")
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    files = sorted(p.relative_to(outs[0])
                   for p in outs[0].rglob("*") if p.is_file())
    for rel in files:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
