import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threadtone import corpus as corpus_module
from threadtone.cli import _options, build_parser, main
from threadtone.corpus import save_corpus
from threadtone.dimensions import NAMES, AnnotationScale
from threadtone.report import PipelineOptions
from threadtone.synth import SynthConfig, generate_corpus, write_cache_records

BUNDLED_CORPUS = (Path(__file__).resolve().parent.parent / "data"
                  / "synthetic_corpus.jsonl")
SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def run_cli(*args):
    return run_python("-m", "threadtone.cli", *args)


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


def test_validate_prints_each_diagnostic_once(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"post_id": "A", "discussion_id": "d", "parent_id": null,'
        ' "author": null, "timestamp": 0, "text": "r"}\n'
        '{"post_id": "B", "discussion_id": "d", "parent_id": "GONE",'
        ' "author": null, "timestamp": 5, "text": "x"}\n')
    diagnostic = "OrphanPost discussion=d post=B: parent 'GONE' not found"
    proc = run_cli("validate", "--corpus", str(bad))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, f"{diagnostic}\n", "")
    lenient = run_cli("validate", "--corpus", str(bad), "--lenient")
    assert (lenient.returncode, lenient.stdout, lenient.stderr) == (
        0, f"{diagnostic}\nok: 0 discussions, 0 posts\n", "")
    # the pipeline writes no diagnostics to stdout, so it logs them
    pipeline = run_cli("pipeline", "--mock", "--corpus", str(bad), "--cache",
                       str(tmp_path / "c.jsonl"), "--output-dir",
                       str(tmp_path / "out"))
    assert pipeline.returncode == 2
    assert pipeline.stderr.splitlines().count(
        f"WARNING threadtone.corpus: {diagnostic}") == 1


def test_an_escaped_lone_surrogate_stops_validate_and_annotate(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"post_id": "A", "discussion_id": "d", "parent_id": null,'
        ' "author": null, "timestamp": 0, "text": "r"}\n'
        '{"post_id": "B", "discussion_id": "d", "parent_id": "A",'
        ' "author": null, "timestamp": 5, "text": "x\\ud800y"}\n')
    diagnostic = "MalformedRecord line=2: text holds a lone surrogate '\\ud800'"
    validate = run_cli("validate", "--corpus", str(corpus))
    assert (validate.returncode, validate.stdout, validate.stderr) == (
        2, f"{diagnostic}\n", "")
    annotate = run_cli("annotate", "--mock", "--corpus", str(corpus),
                       "--cache", str(tmp_path / "c.jsonl"))
    assert (annotate.returncode, annotate.stdout, annotate.stderr) == (
        2, "", f"{diagnostic}\n")


@pytest.mark.parametrize("line, diagnostic", (
    ('{"post_id": "p1", "discussion_id": ["d"], "parent_id": null,'
     ' "author": null, "text": "x"}',
     "MissingTimestamp line=1 post=p1: timestamp absent"),
    ('{"post_id": ["p"], "discussion_id": "d", "parent_id": null,'
     ' "author": null, "timestamp": 0, "text": "x", "extra": 1}',
     "MalformedRecord line=1: unexpected fields ['extra']"),
), ids=("list discussion id", "list post id"))
def test_a_diagnostic_names_only_string_ids(tmp_path, line, diagnostic):
    # a list id is unhashable and would print as "post=['p']": an id that
    # is not a string reaches no diagnostic and drops no discussion
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(line + "\n")
    proc = run_cli("validate", "--corpus", str(corpus))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, f"{diagnostic}\n", "")


def test_the_read_path_builds_no_corpus_objects(tmp_path, monkeypatch,
                                                capsys):
    # the commands that read a corpus take its columns: Post, DiscussionTree
    # and Corpus are only the synthetic corpus writer's input
    def run(out):
        out.mkdir()
        cache = out / "cache.jsonl"
        corpus = ["--corpus", str(BUNDLED_CORPUS)]
        printed = []
        for args in (["validate", *corpus],
                     ["annotate", "--mock", "--seed", "7", *corpus,
                      "--cache", str(cache)],
                     ["features", *corpus, "--annotations", str(cache),
                      "--out", str(out / "features.csv")],
                     ["pipeline", "--mock", "--seed", "7", *corpus,
                      "--cache", str(cache), "--output-dir", str(out / "bundle")]):
            assert main(args) == 0
            printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
        return printed, {path.relative_to(out): path.read_bytes()
                         for path in sorted(out.rglob("*")) if path.is_file()}

    expected = run(tmp_path / "objects")
    assert expected[0][0] == "ok: 60 discussions, 2328 posts\n"

    def no_objects(*args, **kwargs):
        raise AssertionError("a corpus object was built")

    for cls in (corpus_module.Post, corpus_module.DiscussionTree,
                corpus_module.Corpus):
        monkeypatch.setattr(cls, "__init__", no_objects)
    assert run(tmp_path / "columns") == expected


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


@pytest.mark.parametrize("override, message", (
    ({"model": "M9"}, "unknown model 'M9'"),
    ({"n_discussion": 5}, "unexpected keyword argument 'n_discussion'"),
    ({"mean_hours_between_posts": -1}, "mean_hours_between_posts must be"),
    ({"mean_hours_between_posts": float("nan")},
     "mean_hours_between_posts must be"),
    ({"mean_posts": float("nan")}, "mean_posts >= 1"),
    ({"scale_min": 2}, "scale must satisfy min < 0 < max"),
    ({"n_discussions": 2.5}, "n_discussions must be an integer"),
    ({"coefficients": [0.1, 0.4]}, "coefficients must be JSON objects"),
    ({"scale_min": -128}, "scale bounds must lie in -127..127, got [-128, 5]"),
))
def test_invalid_synth_config_exits_with_one_line(synth_setup, override,
                                                  message):
    tmp_path, config_path, _, _ = synth_setup
    bad = tmp_path / "bad_config.json"
    bad.write_text(json.dumps({**json.loads(config_path.read_text()),
                               **override}))
    corpus_out = tmp_path / "gen.jsonl"
    proc = run_cli("synth", "--config", str(bad),
                   "--out-corpus", str(corpus_out),
                   "--out-cache", str(tmp_path / "gen_cache.jsonl"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"invalid synth config {bad}: ")
    assert message in line
    assert not corpus_out.exists()


def test_synth_on_a_continuous_config_writes_nothing(synth_setup):
    tmp_path, config_path, _, _ = synth_setup
    continuous = tmp_path / "continuous.json"
    continuous.write_text(json.dumps({**json.loads(config_path.read_text()),
                                      "continuous": True}))
    corpus_out, cache_out = tmp_path / "gen.jsonl", tmp_path / "gen_cache.jsonl"
    proc = run_cli("synth", "--config", str(continuous),
                   "--out-corpus", str(corpus_out), "--out-cache", str(cache_out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "continuous-mode configs produce no integer cache"]
    assert not corpus_out.exists() and not cache_out.exists()


@pytest.mark.parametrize("flag, value", (("--replications", "2"),
                                         ("--seed", "99"),
                                         ("--scale-min", "-2"),
                                         ("--scale-max", "2")))
def test_synth_rejects_scoring_flags(synth_setup, capsys, flag, value):
    # the config file holds these settings; the flags would be ignored
    tmp_path, config_path, _, _ = synth_setup
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args([
            "synth", "--config", str(config_path),
            "--out-corpus", str(tmp_path / "gen.jsonl"),
            "--out-cache", str(tmp_path / "gen_cache.jsonl"), flag, value])
    assert exited.value.code == 2
    assert "threadtone synth: error: " in capsys.readouterr().err


@pytest.mark.parametrize("runs", ("0", "-1"))
def test_synth_recover_needs_a_run(synth_setup, runs):
    tmp_path, config_path, _, _ = synth_setup
    out = tmp_path / "recovery.json"
    proc = run_cli("synth", "recover", "--config", str(config_path),
                   "--runs", runs, "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "threadtone: error: --runs must be >= 1" in proc.stderr
    assert not out.exists()


def test_annotate_features_agreement_regress_report(tmp_path):
    corpus_path = BUNDLED_CORPUS
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

    # the pipeline keys agreement items by pair hash, as both commands do
    bundle = tmp_path / "bundle"
    proc = run_cli("pipeline", "--corpus", str(corpus_path),
                   "--cache", str(cache_path), "--output-dir", str(bundle),
                   "--mock", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    agreement = (bundle / "agreement.csv").read_bytes()
    assert agreement == agreement_path.read_bytes()
    assert agreement == (report_dir / "agreement.csv").read_bytes()


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
    # report reads the cache before it writes anything: no tables/, figures/
    # or output directory
    assert not (tmp_path / "r").exists()


BAD_CACHE_COMMANDS = [
    ["pipeline", "--corpus", "corpus.jsonl", "--mock", "--cache", "bad.jsonl",
     "--output-dir", "out"],
    ["annotate", "--corpus", "corpus.jsonl", "--mock", "--cache", "bad.jsonl"],
    ["features", "--corpus", "corpus.jsonl", "--annotations", "bad.jsonl",
     "--out", "f.csv"],
    ["agreement", "--cache", "bad.jsonl", "--out", "a.csv"],
    ["report", "--features", "features.csv", "--cache", "bad.jsonl",
     "--output-dir", "r"],
]


@pytest.mark.parametrize("command", BAD_CACHE_COMMANDS)
def test_a_cache_that_is_not_utf8_exits_with_annotation_code(
        synth_setup, monkeypatch, capsys, caplog, command):
    tmp_path, _, _, synth_cache = synth_setup
    monkeypatch.chdir(tmp_path)
    assert main(["features", "--corpus", "corpus.jsonl", "--annotations",
                 str(synth_cache), "--out", "features.csv"]) == 0
    first = synth_cache.read_bytes().splitlines(keepends=True)[0]
    (tmp_path / "bad.jsonl").write_bytes(first + b"\xff\n")
    capsys.readouterr()
    assert main(command) == 3
    message = "cache line 2 in bad.jsonl is not UTF-8 (invalid start byte)"
    err = capsys.readouterr().err
    if command[0] == "pipeline":
        assert f"annotation failed: {message}" in caplog.messages
        assert err == "pipeline failed with exit code 3\n"
    else:
        assert err == f"annotation failed: {message}\n"
    assert not any(Path(name).exists() for name in ("f.csv", "a.csv", "r"))


@pytest.mark.parametrize("command", BAD_CACHE_COMMANDS)
def test_a_cache_that_is_a_directory_exits_with_annotation_code(
        synth_setup, monkeypatch, command):
    tmp_path, _, _, synth_cache = synth_setup
    monkeypatch.chdir(tmp_path)
    assert main(["features", "--corpus", "corpus.jsonl", "--annotations",
                 str(synth_cache), "--out", "features.csv"]) == 0
    Path("bad.jsonl").mkdir()
    proc = run_cli(*command)
    assert proc.returncode == 3, proc.stderr
    message = "annotation failed: cannot read cache bad.jsonl: Is a directory"
    if command[0] == "pipeline":
        assert proc.stderr.splitlines() == [f"ERROR threadtone.report: {message}",
                                            "pipeline failed with exit code 3"]
        assert not Path("out/.threadtone.lock").exists()
    else:
        assert proc.stderr.splitlines() == [message]
    assert not any(Path(name).exists() for name in ("f.csv", "a.csv", "r"))


@pytest.mark.parametrize("command", BAD_CACHE_COMMANDS[2:])
def test_read_only_commands_refuse_a_missing_cache(synth_setup, monkeypatch,
                                                   command):
    # features, agreement and report used to read a missing cache as an
    # empty one and exit 0; annotate and pipeline still create it
    tmp_path, _, _, synth_cache = synth_setup
    monkeypatch.chdir(tmp_path)
    assert main(["features", "--corpus", "corpus.jsonl", "--annotations",
                 str(synth_cache), "--out", "features.csv"]) == 0
    proc = run_cli(*command)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [
        "annotation failed: cannot read cache bad.jsonl: "
        "No such file or directory"]
    assert not any(Path(name).exists()
                   for name in ("bad.jsonl", "f.csv", "a.csv", "r"))


@pytest.mark.parametrize("command", (["annotate"],
                                     ["pipeline", "--output-dir", "out"]))
def test_a_cache_that_cannot_be_written_exits_with_annotation_code(
        tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    proc = run_cli(command[0], "--corpus", str(BUNDLED_CORPUS), "--mock",
                   "--cache", "missing/c.jsonl", *command[1:])
    assert proc.returncode == 3, proc.stderr
    message = ("annotation failed: cannot write cache missing/c.jsonl: "
               "No such file or directory")
    if command[0] == "pipeline":
        assert proc.stderr.splitlines() == [f"ERROR threadtone.report: {message}",
                                            "pipeline failed with exit code 3"]
        assert Path("out/validation.json").exists()
        assert not Path("out/.threadtone.lock").exists()
    else:
        assert proc.stderr.splitlines() == [message]


LOCKED = ("output directory is locked by another run (locked/.threadtone.lock); "
          "remove the lock file if that run is dead")


@pytest.mark.parametrize("command, message", [
    (["features", "--corpus", "corpus.jsonl", "--annotations",
      "synth_cache.jsonl", "--out", "missing/f.csv"],
     "cannot write missing/f.csv: No such file or directory"),
    (["agreement", "--cache", "synth_cache.jsonl", "--out", "missing/a.csv"],
     "cannot write missing/a.csv: No such file or directory"),
    (["synth", "--config", "config.json", "--out-corpus", "missing/c.jsonl",
      "--out-cache", "k.jsonl"],
     "cannot write missing/c.jsonl: No such file or directory"),
    (["pipeline", "--corpus", "corpus.jsonl", "--cache", "k.jsonl", "--mock",
      "--output-dir", "file/out"],
     "cannot write file/out: Not a directory"),
    (["pipeline", "--corpus", "corpus.jsonl", "--cache", "k.jsonl", "--mock",
      "--output-dir", "locked"], LOCKED),
], ids=["features", "agreement", "synth", "pipeline-below-a-file",
        "pipeline-locked"])
def test_an_output_that_cannot_be_written_exits_with_one_line(
        synth_setup, monkeypatch, command, message):
    tmp_path = synth_setup[0]
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("a regular file\n")
    Path("locked").mkdir()
    Path("locked/.threadtone.lock").touch()
    proc = run_cli(*command)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [message]
    assert proc.stdout == ""
    # the other run keeps its lock, and nothing was written beside it
    assert sorted(os.listdir("locked")) == [".threadtone.lock"]
    assert not Path("k.jsonl").exists()


@pytest.mark.parametrize("command", (["regress", "--out", "out"],
                                     ["report", "--output-dir", "out"]))
def test_a_bad_feature_table_exits_with_one_line(synth_setup, monkeypatch,
                                                 capsys, command):
    tmp_path, _, _, synth_cache = synth_setup
    monkeypatch.chdir(tmp_path)
    assert main(["features", "--corpus", "corpus.jsonl", "--annotations",
                 str(synth_cache), "--out", "good.csv"]) == 0
    header, first, *rows = Path("good.csv").read_text().splitlines(True)
    cells = first.split(",")
    cells[3] = "soon"  # dt_prev
    tables = {"header.csv": "post_id,discussion_id\n" + first,
              "short.csv": header + first.rsplit(",", 1)[0] + "\n",
              "text.csv": header + ",".join(cells) + "".join(rows)}
    for name, text in tables.items():
        Path(name).write_text(text)
    for name, reason in (
            ("missing.csv", "No such file or directory"),
            ("header.csv", "unexpected header"),
            ("short.csv", "a row's cells do not match the header"),
            ("text.csv", "could not convert string to float: 'soon'")):
        capsys.readouterr()
        assert main([command[0], "--features", name, *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert err == f"cannot read feature table {name}: {reason}\n"
        assert out == ""
        assert not Path("out").exists()


def test_strict_features_on_an_incomplete_cache_exits_with_annotation_code(
        synth_setup):
    tmp_path, _, corpus_path, synth_cache = synth_setup
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(synth_cache.read_text().splitlines(True)[:40]))
    out = tmp_path / "strict.csv"
    proc = run_cli("features", "--corpus", str(corpus_path),
                   "--annotations", str(partial), "--out", str(out), "--strict")
    assert proc.returncode == 3, proc.stderr
    assert "MissingAnnotation" not in proc.stderr  # no traceback
    assert "annotation failed" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ("annotate", "pipeline"))
@pytest.mark.parametrize("flag, value, message", (
    ("--concurrency", "0", "--concurrency must be >= 1"),
    ("--concurrency", "-2", "--concurrency must be >= 1"),
    ("--max-retries", "-1", "--max-retries must be >= 0"),
    ("--replications", "0", "--replications must be >= 1"),
))
def test_bad_backend_limits_are_usage_errors(tmp_path, command, flag, value,
                                             message):
    cache = tmp_path / "cache.jsonl"
    out = ("--output-dir", str(tmp_path / "out")) if command == "pipeline" else ()
    proc = run_cli(command, "--corpus", str(BUNDLED_CORPUS), "--cache",
                   str(cache), *out, "--backend-url", "http://127.0.0.1:9",
                   flag, value)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"threadtone: error: {message}" in proc.stderr
    assert not cache.exists() and not (tmp_path / "out").exists()


def test_package_runs_as_a_module():
    proc = run_python("-m", "threadtone", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: threadtone")
    assert "pipeline" in proc.stdout


def test_cli_and_recovery_imports_load_no_scipy():
    # the t reference needs only math; scipy is a test-only oracle
    for module in ("threadtone.cli", "threadtone.synth"):
        proc = run_python("-c", f"import sys, {module}; print(sorted("
                          "name for name in sys.modules "
                          "if name.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


def test_cli_import_loads_no_third_party_http_client():
    # the HTTP backend uses the standard library's http.client
    proc = run_python("-c", "import sys, threadtone.cli; "
                      "print([name for name in ('requests', 'urllib3') "
                      "if name in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("scale", (("--scale-min", "1"),
                                   ("--scale-max", "0"),
                                   ("--scale-min", "3", "--scale-max", "-3")))
def test_bad_scale_is_a_usage_error(synth_setup, scale):
    tmp_path, _, corpus_path, synth_cache = synth_setup
    proc = run_cli("features", "--corpus", str(corpus_path),
                   "--annotations", str(synth_cache),
                   "--out", str(tmp_path / "f.csv"), *scale)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert ("threadtone: error: --scale-min/--scale-max: scale must satisfy "
            "min < 0 < max") in proc.stderr


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


def test_single_discussion_corpus_exits_with_inference_code(tmp_path):
    # one discussion is one cluster: t-based p-values are undefined, so
    # every model fails cleanly; the normal reference still works
    lines = BUNDLED_CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "one.jsonl"
    corpus.write_text("".join(line for line in lines
                              if json.loads(line)["discussion_id"] == "d000"),
                      encoding="utf-8")
    cache = tmp_path / "cache.jsonl"
    for pvalue, code in (("t", 4), ("normal", 0)):
        out = tmp_path / f"bundle-{pvalue}"
        proc = run_cli("pipeline", "--corpus", str(corpus), "--cache", str(cache),
                       "--output-dir", str(out), "--mock", "--seed", "7",
                       "--pvalue", pvalue)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        summary = json.loads((out / "regression_summary.json").read_text())
        if code == 4:
            assert summary["models"] == {} and len(summary["errors"]) == 16
            assert "2 clusters" in summary["errors"]["M1/disagree_vs_agree"]
        else:
            assert summary["models"]
            assert (out / "manifest.json").exists()
        features = str(out / "features.csv")
        for args in (("regress", "--features", features,
                      "--out", str(tmp_path / f"regress-{pvalue}")),
                     ("report", "--features", features,
                      "--output-dir", str(tmp_path / f"report-{pvalue}"))):
            proc = run_cli(*args, "--pvalue", pvalue)
            assert proc.returncode == code, (args[0], proc.stderr)
            assert "Traceback" not in proc.stderr
        # figures/ only when some model was fitted, in the bundle and report
        for directory in (out, tmp_path / f"report-{pvalue}"):
            assert (directory / "figures").is_dir() == (code == 0), directory


def test_two_reply_corpus_exits_with_inference_code(tmp_path):
    # two replies leave every Spearman cell undefined (written as nan) and
    # too few rows for any model
    lines = BUNDLED_CORPUS.read_text(encoding="utf-8").splitlines(keepends=True)
    posts = [json.loads(line) for line in lines]
    root = next(p for p in posts if p["parent_id"] is None)
    replies = [p for p in posts if p["parent_id"] == root["post_id"]][:2]
    corpus = tmp_path / "two.jsonl"
    corpus.write_text("".join(json.dumps(p) + "\n" for p in [root, *replies]),
                      encoding="utf-8")
    out = tmp_path / "out"
    proc = run_cli("pipeline", "--corpus", str(corpus),
                   "--cache", str(tmp_path / "cache.jsonl"),
                   "--output-dir", str(out), "--mock", "--seed", "7")
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Spearman correlation undefined" in proc.stderr
    rows = (out / "correlations.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1:].count("nan") for row in rows] == [2, 2, 2]
    # replies to the root only: M4 has no rows; the key is not repeated in
    # the log line or in the stored message
    key = "M4/disagree_vs_agree"
    assert f"{key} not fitted: no rows pass the filter\n" in proc.stderr
    summary = json.loads((out / "regression_summary.json").read_text())
    assert summary["errors"][key] == "no rows pass the filter"


def test_one_replication_writes_nan_agreement(synth_setup):
    tmp_path, _, corpus_path, _ = synth_setup
    out = tmp_path / "bundle"
    proc = run_cli("pipeline", "--corpus", str(corpus_path),
                   "--cache", str(tmp_path / "c.jsonl"),
                   "--output-dir", str(out), "--mock", "--replications", "1")
    assert proc.returncode == 0, proc.stderr
    assert "agreement undefined" in proc.stderr
    rows = (out / "agreement.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        _, n_items, n_raters, *stats = row.split(",")
        assert int(n_items) > 0 and n_raters == "1"
        assert stats == ["nan"] * 7


def test_agreement_on_an_empty_cache(tmp_path):
    cache, out = tmp_path / "empty.jsonl", tmp_path / "agreement.csv"
    cache.write_text("")
    proc = run_cli("agreement", "--cache", str(cache), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert len(rows) == 3
    assert all(row[1] == "0" and row[3:] == ["nan"] * 7 for row in rows)


@pytest.mark.parametrize("score", (10**30, 2**53 + 1))
def test_agreement_refuses_a_score_a_float64_cannot_hold(synth_setup, score):
    # agreement used to print such a score rounded (2**53 + 1) or as
    # -2**63 (10**30), and then stopped on it; its line is now warned by
    # number and skipped, so its pair, lacking that score, is no item
    tmp_path, _, _, synth_cache = synth_setup
    lines = synth_cache.read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    cache = tmp_path / "big.jsonl"
    cache.write_text(json.dumps({**first, "score": score}) + "\n"
                     + "".join(lines[1:]))
    n_items = {}
    for path in (synth_cache, cache):
        out = tmp_path / f"{path.stem}.csv"
        proc = run_cli("agreement", "--cache", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        n_items[path] = {row.split(",")[1]
                         for row in out.read_text().splitlines()[1:]}
    assert proc.stderr == (f"WARNING threadtone.annotate: ignoring malformed "
                           f"cache line 1 in {cache}\n")
    [whole], [skipped] = n_items[synth_cache], n_items[cache]
    assert int(skipped) == int(whole) - 1


def first_score_outside(cache: Path, scale: AnnotationScale) -> tuple[str, int]:
    """The first pair in sorted order whose scores (in dimension, then
    replication order) leave ``scale``, and that score."""
    by_pair: dict = {}
    for line in cache.read_text().splitlines():
        rec = json.loads(line)
        by_pair.setdefault(rec["pair_hash"], {})[
            NAMES.index(rec["dimension"]), rec["replication"]] = rec["score"]
    for pair_hash in sorted(by_pair):
        for _, score in sorted(by_pair[pair_hash].items()):
            if not scale.contains(score):
                return pair_hash, score
    raise AssertionError("every score lies on the scale")


def test_agreement_refuses_a_cache_scored_on_another_scale(tmp_path):
    # Fleiss' kappa counts only the scale's points: read on the default
    # -5..5 scale, a cache annotated on -10..10 used to exit 0 with kappa
    # near -0.16 where the mock's uniform scores give ~0
    cache, out = tmp_path / "wide.jsonl", tmp_path / "agreement.csv"
    proc = run_cli("annotate", "--corpus", str(BUNDLED_CORPUS), "--cache",
                   str(cache), "--mock", "--seed", "7", "--scale-min", "-10",
                   "--scale-max", "10")
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("agreement", "--cache", str(cache), "--out", str(out))
    assert proc.returncode == 3, proc.stderr
    pair_hash, score = first_score_outside(cache, AnnotationScale())
    assert proc.stderr == (f"annotation failed: pair {pair_hash} holds score "
                           f"{score}, outside the scale [-5, 5]\n")
    assert not out.exists()
    proc = run_cli("agreement", "--cache", str(cache), "--out", str(out),
                   "--scale-min", "-10", "--scale-max", "10")
    assert proc.returncode == 0, proc.stderr
    kappas = [float(line.split("kappa=")[1].split()[0])
              for line in proc.stdout.splitlines()]
    assert len(kappas) == 3 and all(abs(k) < 0.02 for k in kappas)


def test_report_refuses_a_cache_scored_on_another_scale(synth_setup):
    tmp_path, _, corpus_path, synth_cache = synth_setup
    features = tmp_path / "features.csv"
    proc = run_cli("features", "--corpus", str(corpus_path), "--annotations",
                   str(synth_cache), "--out", str(features))
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "report"
    proc = run_cli("report", "--features", str(features), "--cache",
                   str(synth_cache), "--output-dir", str(report),
                   "--scale-min", "-2", "--scale-max", "2")
    assert proc.returncode == 3, proc.stderr
    pair_hash, score = first_score_outside(synth_cache, AnnotationScale(-2, 2))
    assert proc.stderr == (f"annotation failed: pair {pair_hash} holds score "
                           f"{score}, outside the scale [-2, 2]\n")
    assert not (report / "agreement.csv").exists()
    assert not (report / "tables").exists()


def test_features_refuse_a_cache_scored_on_another_scale(synth_setup):
    # the pair hashes include the scale, so on -2..2 the cache scored on
    # -5..5 holds none of the corpus's pairs: features used to write an
    # empty table and exit 0, warning once per post
    tmp_path, _, corpus_path, synth_cache = synth_setup
    features = tmp_path / "features.csv"
    proc = run_cli("features", "--corpus", str(corpus_path), "--annotations",
                   str(synth_cache), "--out", str(features),
                   "--scale-min", "-2", "--scale-max", "2")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"annotation failed: annotation cache "
                                  f"{synth_cache} holds none of the corpus's ")
    assert not features.exists()


@pytest.mark.parametrize("scale, bounds", (
    (("--scale-max", "128"), "[-5, 128]"),
    (("--scale-min", "-128"), "[-128, 5]"),
    (("--scale-min", "-200", "--scale-max", "200"), "[-200, 200]")))
def test_a_scale_beyond_the_cache_scores_is_a_usage_error(tmp_path, scale,
                                                         bounds):
    # a score outside -127..127 is a malformed cache line, so no run may
    # ask a backend for one
    cache = tmp_path / "cache.jsonl"
    proc = run_cli("annotate", "--corpus", str(BUNDLED_CORPUS), "--cache",
                   str(cache), "--mock", *scale)
    assert proc.returncode == 2
    [error] = [line for line in proc.stderr.splitlines() if "error" in line]
    assert error == ("threadtone: error: --scale-min/--scale-max: scale "
                     f"bounds must lie in -127..127, got {bounds}")
    assert proc.stderr.endswith(error + "\n") and "Traceback" not in proc.stderr
    assert not cache.exists()


def test_features_read_the_first_replications_of_a_larger_cache(synth_setup):
    # a cache annotated at 6 replications, read at 4, keeps every pair, as
    # the pipeline at 4 does; it used to lose them all
    tmp_path, _, corpus_path, _ = synth_setup
    cache = tmp_path / "six.jsonl"
    proc = run_cli("annotate", "--corpus", str(corpus_path), "--cache",
                   str(cache), "--mock", "--seed", "5", "--replications", "6")
    assert proc.returncode == 0, proc.stderr
    bundle = tmp_path / "bundle"
    proc = run_cli("pipeline", "--corpus", str(corpus_path), "--cache",
                   str(cache), "--output-dir", str(bundle), "--mock",
                   "--seed", "5", "--replications", "4")
    assert proc.returncode == 0, proc.stderr
    features = tmp_path / "features.csv"
    proc = run_cli("features", "--corpus", str(corpus_path), "--annotations",
                   str(cache), "--replications", "4", "--out", str(features))
    assert proc.returncode == 0, proc.stderr
    assert features.read_bytes() == (bundle / "features.csv").read_bytes()
    rows = json.loads((bundle / "manifest.json").read_text())["n_feature_rows"]
    assert rows > 0 and f"wrote {rows} feature rows" in proc.stdout


def test_report_reproduces_the_pipeline_bundle(tmp_path):
    # report and the pipeline run the same stage functions, so report on the
    # bundle's features.csv rebuilds the bundle's regression and figure bytes
    bundle, cache = tmp_path / "bundle", tmp_path / "cache.jsonl"
    proc = run_cli("pipeline", "--corpus", str(BUNDLED_CORPUS),
                   "--cache", str(cache), "--output-dir", str(bundle),
                   "--mock", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "report"
    proc = run_cli("report", "--features", str(bundle / "features.csv"),
                   "--cache", str(cache), "--output-dir", str(report))
    assert proc.returncode == 0, proc.stderr
    for directory in ("tables", "figures"):
        names = sorted(p.name for p in (bundle / directory).iterdir())
        assert names == sorted(p.name for p in (report / directory).iterdir())
        assert len(names) == {"tables": 32, "figures": 12}[directory]
        for name in names:
            assert ((report / directory / name).read_bytes()
                    == (bundle / directory / name).read_bytes()), name
    for name in ("regression_summary.json", "correlations.csv",
                 "correlations.txt"):
        assert (report / name).read_bytes() == (bundle / name).read_bytes(), name
    assert (report / "agreement.csv").exists()


def test_report_correlations_match_the_pipeline_with_a_predating_reply(
        tmp_path):
    # a reply timestamped before its parent gets no feature row; the pipeline
    # and report both correlate the feature rows, so their files agree
    records = [json.loads(line) for line in
               BUNDLED_CORPUS.read_text(encoding="utf-8").splitlines()]
    records = [r for r in records
               if r["discussion_id"] in ("d000", "d001", "d002")]
    by_id = {r["post_id"]: r for r in records}
    reply = next(r for r in records if r["parent_id"] is not None)
    reply["timestamp"] = by_id[reply["parent_id"]]["timestamp"] - 1
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records),
                      encoding="utf-8")
    bundle = tmp_path / "bundle"
    proc = run_cli("pipeline", "--corpus", str(corpus),
                   "--cache", str(tmp_path / "cache.jsonl"),
                   "--output-dir", str(bundle), "--mock", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((bundle / "manifest.json").read_text())
    assert manifest["n_feature_rows"] == manifest["n_annotated_posts"] - 1
    report = tmp_path / "report"
    proc = run_cli("report", "--features", str(bundle / "features.csv"),
                   "--output-dir", str(report))
    assert proc.returncode == 0, proc.stderr
    for name in ("correlations.csv", "correlations.txt"):
        assert (report / name).read_bytes() == (bundle / name).read_bytes(), name


PIPELINE_ARGS = ("pipeline", "--corpus", "c.jsonl", "--cache", "k.jsonl",
                 "--output-dir", "out")


@pytest.mark.parametrize("flags, expected", [
    ((), {}),
    (("--pvalue", "normal"), {"pvalue_dist": "normal"}),
    (("--stars-scheme", "four-star"), {"star_scheme": "four-star"}),
    (("--m6-relax-sibling-filter",), {"m6_relax_sibling_filter": True}),
    (("--prev-scope", "branch"), {"prev_scope": "branch"}),
    (("--unanimity",), {"unanimity": True}),
    (("--scale-min", "-3", "--scale-max", "3"),
     {"scale": AnnotationScale(-3, 3)}),
    (("--cr-correction", "--lenient"), {"cr_correction": True, "lenient": True}),
    (("--replications", "6", "--seed", "9"), {"replications": 6, "seed": 9}),
    (("--mock", "--model", "m2", "--concurrency", "2", "--max-retries", "5"),
     {"mock": True, "model": "m2", "concurrency": 2, "max_retries": 5}),
    (("--backend-url", "http://localhost:1/v1", "--api-key-env", "KEY"),
     {"backend_url": "http://localhost:1/v1", "api_key_env": "KEY"}),
    (("--pvalue", "normal", "--stars-scheme", "four-star",
      "--m6-relax-sibling-filter", "--prev-scope", "branch", "--unanimity",
      "--scale-min", "-3", "--scale-max", "3"),
     {"pvalue_dist": "normal", "star_scheme": "four-star",
      "m6_relax_sibling_filter": True, "prev_scope": "branch",
      "unanimity": True, "scale": AnnotationScale(-3, 3)}),
])
def test_pipeline_flags_map_onto_options(flags, expected):
    options = _options(build_parser().parse_args([*PIPELINE_ARGS, *flags]))
    defaults = PipelineOptions()
    for field in dataclasses.fields(PipelineOptions):
        assert getattr(options, field.name) == expected.get(
            field.name, getattr(defaults, field.name)), field.name


def test_regress_flags_leave_backend_options_at_defaults():
    # regress --model names a regression model, not the annotator model
    args = build_parser().parse_args(
        ["regress", "--features", "f.csv", "--out", "o", "--model", "M4",
         "--pvalue", "normal"])
    assert _options(args) == PipelineOptions(pvalue_dist="normal")


@pytest.mark.parametrize("command", [
    ["validate"],
    ["annotate", "--mock", "--cache", "c.jsonl"],
    ["features", "--annotations", "c.jsonl", "--out", "f.csv"],
    ["pipeline", "--mock", "--cache", "c.jsonl", "--output-dir", "out"],
])
def test_an_unreadable_corpus_exits_with_one_line(tmp_path, monkeypatch,
                                                  capsys, command):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    for corpus, reason in (("missing.jsonl", "No such file or directory"),
                           ("folder", "Is a directory")):
        assert main([command[0], "--corpus", corpus, *command[1:]]) == 2
        out, err = capsys.readouterr()
        assert err == f"cannot read corpus {corpus}: {reason}\n"
        assert out == ""
        if command[0] == "pipeline":  # validated before any output exists
            assert not (tmp_path / "out").exists()


def test_undecodable_corpus_bytes_are_a_validation_error(tmp_path, capsys):
    lines = BUNDLED_CORPUS.read_bytes().splitlines(keepends=True)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(lines[:4]) + b"\xff\n" + b"".join(lines[4:]))
    diagnostic = "MalformedRecord line=5: invalid UTF-8 byte 0xff at character 1"

    assert main(["validate", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().out == diagnostic + "\n"
    assert main(["validate", "--lenient", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        diagnostic, f"ok: 60 discussions, {len(lines)} posts"]

    out = tmp_path / "bundle"
    assert main(["pipeline", "--mock", "--corpus", str(corpus), "--cache",
                 str(tmp_path / "c.jsonl"), "--output-dir", str(out)]) == 2
    validation = json.loads((out / "validation.json").read_text())
    assert validation["diagnostics"] == [diagnostic]
    assert not validation["ok"]
