"""threadtone benchmark: three seeded workloads through the public entry points.

    python3 perfbench/run.py --workload warm-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root or anywhere else; it uses the package in
``src/`` next to this directory and refuses to run without it. Every input
is generated by ``threadtone.synth.generate_corpus`` from ``--seed``; the
program under test only receives the generated files.

warm-deep    ``run_pipeline`` (mock) rerun on 24 discussions x ~1,000 posts
             with the cache pre-filled from the synth records (12 lines per
             pair), so no backend call is made. Cache load, cache-hit
             annotation, the feature table (quadratic in posts per
             discussion), ``run_all`` and the figures share the time.
cold-http    ``run_pipeline`` with an empty cache on a shallow corpus
             (~38 posts per discussion, 608 posts) against the fake backend
             in ``stub_backend.py`` (2 ms delay, ``--concurrency 2``). Prompt
             building, strict parsing, HTTP transport and cache appends
             dominate: the write-side counterpart of warm-deep's reads.
recovery-m6  ``recovery_experiment`` at paper scale (``data/synth_config.json``:
             M6, 60 x 38), 36 corpora per batch. Generation, shallow features
             and small OLS fits only: no file I/O, cache or HTTP, so it is the
             workload that annotate and report changes must leave unchanged.

A run sets up ``N_SETUPS`` times, and more (up to ``MAX_SETUPS``) while the
set-ups total under ``SETUP_SECONDS``; ``setup_s`` is their median. Set-up
is input generation, cache pre-fill and starting the fake backend.
recovery-m6's corpora are generated inside the timed call, so its set-up
writes the config and generates the batch's first corpus from the substream
the call will use: the one input corpus set-up can make, whose properties
are recorded. Then it runs timed iterations while the next one is expected
to end within ``--seconds``, at least ``MIN_ITERATIONS`` of them. An
iteration is one entry-point call in its own child process
(``iteration.py``): ``wall_s`` is timed inside the child around the call and
``peak_rss_mb`` is that child's own maximum RSS from ``os.wait4``. Every
iteration's outputs are checked; a failed check fails the iteration, which
counts against ``ok_frac`` (1 - failed operations / attempted operations;
on cold-http every backend request is an operation too) and makes the run
exit 1.

With ``--trace 1`` untraced and traced iterations alternate and the
per-layer metrics (medians over traced iterations) are reported instead,
with ``trace.overhead_frac`` = traced / untraced median wall - 1. Metric
names and units come from ``BENCHMARK.json``. The last stdout line is one
JSON object ``{correct, attempted, failed, metrics}``; the full results
(input properties, machine, every sample, quartiles, checks) and the spans
are written under ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYNTH_CONFIG = ROOT / "data" / "synth_config.json"
WORK = ROOT / ".bench_work"

N_SETUPS = 3  # set-ups per run: at least N_SETUPS, then up to MAX_SETUPS
SETUP_SECONDS = 3.0  # while they total less than this
MAX_SETUPS = 25
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 120.0
REPLICATIONS = 4  # PipelineOptions default: requests per pair
DIMENSIONS = 3  # cache lines per request
STUB_DELAY_MS = 2.0
CONCURRENCY = 2
PIPELINE_SEED = 7
API_KEY_ENV = "ANNOTATOR_API_KEY"

# Workload sizes; "toy" is for the smoke test only.
SIZES = {
    "full": {"warm-deep": (24, 1000.0), "cold-http": 608, "recovery-m6": 36},
    "toy": {"warm-deep": (3, 40.0), "cold-http": 80, "recovery-m6": 1},
}


# --- inputs ----------------------------------------------------------------------

@dataclasses.dataclass
class Inputs:
    """One set-up's products; ``close`` stops the fake backend."""
    directory: Path
    generate_s: float
    corpus: Path | None = None
    cache: Path | None = None
    config: Path | None = None
    stub: subprocess.Popen | None = None
    stub_url: str | None = None
    n_runs: int = 0
    generated: object = None  # the generated Corpus, for its properties
    properties: dict = dataclasses.field(default_factory=dict)
    cache_sha256: str | None = None

    def close(self) -> None:
        if self.stub is not None:
            self.stub.terminate()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub.stdout.close()
            self.stub = None


def paper_config():
    from threadtone.synth import SynthConfig
    return SynthConfig.from_json(SYNTH_CONFIG)


def timed_generate(config):
    from threadtone.synth import generate_corpus
    start = time.perf_counter()
    result = generate_corpus(config)
    return result, time.perf_counter() - start


def setup_warm_deep(directory: Path, seed: int, size: str) -> Inputs:
    from threadtone.corpus import save_corpus
    from threadtone.synth import write_cache_records
    n_discussions, mean_posts = SIZES[size]["warm-deep"]
    config = dataclasses.replace(paper_config(), n_discussions=n_discussions,
                                 mean_posts=mean_posts, seed=seed)
    result, generate_s = timed_generate(config)
    inputs = Inputs(directory, generate_s, corpus=directory / "corpus.jsonl",
                    cache=directory / "cache.jsonl", generated=result.corpus)
    save_corpus(result.corpus, inputs.corpus)
    write_cache_records(result.cache_records, inputs.cache)
    return inputs


def setup_cold_http(directory: Path, seed: int, size: str) -> Inputs:
    from threadtone.corpus import Corpus, save_corpus
    target = SIZES[size]["cold-http"]
    # Generate twice the discussions needed and pack them first-fit: keep
    # each discussion, in order, that still fits under the post target. The
    # request count then barely depends on the seed (a plain Poisson draw of
    # 608 posts varies by ~4%).
    config = paper_config()
    config = dataclasses.replace(
        config, n_discussions=int(2 * target / config.mean_posts), seed=seed)
    result, generate_s = timed_generate(config)
    kept: set[str] = set()
    total = 0
    for discussion_id in result.corpus.discussion_ids():
        n_posts = len(result.corpus.discussions[discussion_id].depth)
        if total + n_posts <= target:
            kept.add(discussion_id)
            total += n_posts
    corpus = Corpus(
        discussions={d: result.corpus.discussions[d] for d in sorted(kept)},
        posts={pid: post for pid, post in result.corpus.posts.items()
               if post.discussion_id in kept})
    inputs = Inputs(directory, generate_s, corpus=directory / "corpus.jsonl",
                    cache=directory / "cache.jsonl", generated=corpus)
    save_corpus(corpus, inputs.corpus)
    inputs.stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub_backend.py"),
         "--delay-ms", str(STUB_DELAY_MS), "--replications", str(REPLICATIONS)],
        stdout=subprocess.PIPE, text=True)
    line = inputs.stub.stdout.readline()
    if not line.strip().isdigit():
        inputs.close()
        raise RuntimeError("fake backend did not report its port")
    inputs.stub_url = f"http://127.0.0.1:{int(line)}/"
    return inputs


def setup_recovery_m6(directory: Path, seed: int, size: str) -> Inputs:
    config = dataclasses.replace(paper_config(), seed=seed)
    inputs = Inputs(directory, 0.0, config=directory / "synth_config.json",
                    n_runs=SIZES[size]["recovery-m6"])
    config.to_json(inputs.config)
    # recovery_experiment generates its corpora itself, run r from the
    # SeedSequence([seed, r]) substream; generate run 0's corpus as it will,
    # to record the properties of one input corpus.
    first_seed = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    result, inputs.generate_s = timed_generate(
        dataclasses.replace(config, seed=first_seed))
    inputs.generated = result.corpus
    return inputs


def input_properties(inputs: Inputs) -> dict:
    from threadtone.annotate import pair_content_hash
    from threadtone.dimensions import AnnotationScale
    scale = AnnotationScale()
    sizes: list[int] = []
    depths: list[int] = []
    corpus = inputs.generated
    for tree in corpus.discussions.values():
        sizes.append(len(tree.depth))
        depths.append(max(tree.depth.values()))
    pairs = [pair_content_hash(corpus.posts[post.parent_id].text, post.text, scale)
             for post in corpus.posts.values() if post.parent_id is not None]
    annotated = inputs.corpus is not None
    cache_bytes, cache_lines = file_size_and_lines(inputs.cache)
    return {
        "corpora_per_iteration": max(1, inputs.n_runs),
        "discussions": len(sizes),
        "posts": sum(sizes),
        "posts_per_discussion_median": statistics.median(sizes),
        "posts_per_discussion_max": max(sizes),
        "max_depth": max(depths),
        "pairs": len(pairs),
        "expected_requests": len(pairs) * REPLICATIONS if annotated else 0,
        "cache_lines": cache_lines,
        "cache_bytes": cache_bytes,
        "duplicate_pair_share": 1.0 - len(set(pairs)) / len(pairs),
    }


def file_size_and_lines(path: Path | None) -> tuple[int, int]:
    if path is None or not path.exists():
        return 0, 0
    with open(path, "rb") as fh:
        return path.stat().st_size, sum(1 for _ in fh)


def bundle_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stub_requests(url: str) -> int:
    with urllib.request.urlopen(url + "stats", timeout=10) as response:
        return int(json.load(response)["requests"])


# --- iterations --------------------------------------------------------------------

@dataclasses.dataclass
class Sample:
    traced: bool
    exit_code: int
    wall_s: float | None = None
    peak_rss_mb: float = 0.0
    failures: list[str] = dataclasses.field(default_factory=list)
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    requests: int = 0  # backend requests served (cold-http)
    request_failures: int = 0
    digest: str | None = None  # bundle or recovery-estimate digest
    spans: list = dataclasses.field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks[name] = passed
        if not passed:
            self.failures.append(f"{name}: {detail}" if detail else name)


def run_child(spec: dict, spec_path: Path) -> tuple[int, float, dict | None]:
    """(exit code, peak RSS in MB, result) of one iteration process."""
    result_path = spec_path.with_name("result.json")
    result_path.unlink(missing_ok=True)
    spec = {**spec, "src": str(SRC), "result": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, API_KEY_ENV: "benchmark-token"}
    child = subprocess.Popen(
        [sys.executable, str(HERE / "iteration.py"), str(spec_path)],
        env=env, stdout=sys.stderr)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                child.kill()
                pid, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:  # interrupted: leave no iteration running
        child.kill()
        child.wait()
        raise
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0, read_json(result_path)


def read_json(path: Path) -> dict | None:
    """A JSON file the program or the iteration wrote; None if missing or torn."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def run_iteration(workload: str, inputs: Inputs, run_dir: Path,
                  traced: bool) -> Sample:
    out_dir = run_dir / "bundle"
    shutil.rmtree(out_dir, ignore_errors=True)
    if workload == "recovery-m6":
        spec = {"kind": "recovery", "config": str(inputs.config),
                "n_runs": inputs.n_runs}
    else:
        options = {"seed": PIPELINE_SEED, "mock": workload == "warm-deep"}
        if workload == "cold-http":
            inputs.cache.unlink(missing_ok=True)
            options.update(backend_url=inputs.stub_url, model="stub",
                           concurrency=CONCURRENCY, api_key_env=API_KEY_ENV)
            served_before = stub_requests(inputs.stub_url)
        spec = {"kind": "pipeline", "corpus": str(inputs.corpus),
                "cache": str(inputs.cache), "output_dir": str(out_dir),
                "options": options}
    spec["trace"] = traced

    exit_code, rss_mb, result = run_child(spec, run_dir / "spec.json")
    sample = Sample(traced=traced, exit_code=exit_code, peak_rss_mb=rss_mb)
    sample.check("exit_code", exit_code == 0 and result is not None,
                 f"exit code {exit_code}")
    if result is None:
        return sample
    sample.wall_s = result["wall_s"]
    sample.layers = result.get("layers", {})
    sample.spans = result.get("spans", [])
    props = inputs.properties
    if workload == "recovery-m6":
        report = result["recovery"]
        sample.check("recovery_no_failures",
                     report["n_failed"] == 0 and report["n_runs"] == inputs.n_runs,
                     f"{report['n_failed']} failed of {report['n_runs']}")
        sample.digest = hashlib.sha256(
            json.dumps(report["results"], sort_keys=True).encode()).hexdigest()
        return sample

    manifest = read_json(out_dir / "manifest.json") or {}
    shape = (manifest.get("n_tables"), manifest.get("n_figures"),
             manifest.get("n_feature_rows"))
    sample.check("manifest", shape == (16, 12, props["pairs"]),
                 f"(n_tables, n_figures, n_feature_rows) = {shape}")
    if out_dir.exists():
        sample.digest = bundle_digest(out_dir)
    if workload == "warm-deep":
        from threadtone.report import file_sha256
        unchanged = file_sha256(inputs.cache) == inputs.cache_sha256
        sample.check("cache_unchanged", unchanged, "backend was called")
    else:
        sample.requests = stub_requests(inputs.stub_url) - served_before
        expected = props["expected_requests"]
        sample.check("stub_requests", sample.requests == expected,
                     f"{sample.requests} requests, expected {expected}")
        sample.request_failures = max(
            sample.requests - expected,
            int(sample.layers.get("annotate.request_errors", 0)))
        keys = cache_keys(inputs.cache)
        sample.check("cache_records",
                     keys is not None
                     and len(keys) == expected * DIMENSIONS == len(set(keys)),
                     f"{keys and len(keys)} lines, {keys and len(set(keys))} "
                     f"distinct keys, expected {expected * DIMENSIONS}")
    cache_bytes, cache_lines = file_size_and_lines(inputs.cache)
    sample.layers.update({"annotate.cache_bytes": cache_bytes,
                          "annotate.cache_lines": cache_lines})
    return sample


def cache_keys(path: Path) -> list[tuple] | None:
    """The (pair, model, dimension, replication) key of every cache line;
    None if a line is not a cache record."""
    keys = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                keys.append((rec["pair_hash"], rec["model"], rec["dimension"],
                             rec["replication"]))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return keys


def check_identical(samples: list[Sample], name: str) -> None:
    """Every iteration's bundle (or estimates) must match the first one's."""
    reference = next((s.digest for s in samples if s.digest), None)
    for sample in samples:
        if sample.exit_code == 0 and reference is not None:
            sample.check(name, sample.digest == reference,
                         "differs from the first iteration")


# --- metrics ---------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    if not values:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3}


def end_to_end(setup_s: list[float], samples: list[Sample],
               attempted: int, failed: int) -> dict[str, dict]:
    untraced = [s for s in samples if not s.traced]
    return {
        "setup_s": summary(setup_s),
        "wall_s": summary([s.wall_s for s in untraced if s.wall_s is not None]),
        "peak_rss_mb": summary([s.peak_rss_mb for s in untraced]),
        "ok_frac": summary([1.0 - failed / attempted]),
        "failed_frac": summary([failed / attempted]),
    }


def per_layer(samples: list[Sample], inputs: Inputs,
              names: list[str]) -> dict[str, dict]:
    traced = [s for s in samples if s.traced and s.wall_s is not None]
    untraced = [s for s in samples if not s.traced and s.wall_s is not None]
    rows = []
    for sample in traced:
        layers = dict(sample.layers)
        requests = (sample.requests if inputs.stub is not None
                    else layers["annotate.backend_calls"])
        layers["annotate.requests"] = requests
        layers["annotate.useful_ratio"] = (layers["annotate.parsed"] / requests
                                           if requests else 1.0)
        layers["annotate.request_overhead_ms"] = (
            layers["annotate.request_p50_ms"] - STUB_DELAY_MS
            if inputs.stub is not None else 0.0)
        if inputs.corpus is not None:  # generation happened at set-up
            layers["synth.generate_s"] = inputs.generate_s
        layers.setdefault("annotate.cache_bytes", 0)
        layers.setdefault("annotate.cache_lines", 0)
        rows.append(layers)
    out = {name: summary([row[name] for row in rows])
           for name in names if name != "trace.overhead_frac"}
    overhead = 0.0
    if traced and untraced:
        overhead = (statistics.median(s.wall_s for s in traced)
                    / statistics.median(s.wall_s for s in untraced) - 1.0)
    out["trace.overhead_frac"] = summary([overhead])
    return out


# --- one workload run ----------------------------------------------------------------

SETUPS = {"warm-deep": setup_warm_deep, "cold-http": setup_cold_http,
          "recovery-m6": setup_recovery_m6}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, bench: dict) -> dict:
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = None
    try:
        setup_s = []
        generate_s = []
        while len(setup_s) < N_SETUPS or (sum(setup_s) < SETUP_SECONDS
                                          and len(setup_s) < MAX_SETUPS):
            directory = run_dir / f"setup{len(setup_s)}"
            directory.mkdir(parents=True)
            start = time.perf_counter()
            fresh = SETUPS[workload](directory, seed, size)
            setup_s.append(time.perf_counter() - start)
            generate_s.append(fresh.generate_s)
            if inputs is not None:
                inputs.close()
                shutil.rmtree(inputs.directory)
            inputs = fresh
        inputs.generate_s = statistics.median(generate_s)
        inputs.properties = input_properties(inputs)
        if inputs.cache is not None and inputs.cache.exists():
            from threadtone.report import file_sha256
            inputs.cache_sha256 = file_sha256(inputs.cache)

        samples: list[Sample] = []
        durations: list[float] = []
        start = time.monotonic()
        while True:
            n_traced = sum(s.traced for s in samples)
            n_untraced = len(samples) - n_traced
            enough = (n_traced >= 1 and n_untraced >= 1 if trace
                      else n_untraced >= MIN_ITERATIONS)
            # stop before an iteration that would end past --seconds
            if enough and (time.monotonic() - start
                           + statistics.median(durations) > seconds):
                break
            began = time.monotonic()
            samples.append(run_iteration(workload, inputs, run_dir,
                                         traced=trace and n_traced < n_untraced))
            durations.append(time.monotonic() - began)
        check_identical(samples, "estimates_identical"
                        if workload == "recovery-m6" else "bundle_identical")

        attempted = len(samples) + sum(s.requests for s in samples)
        failed = (sum(bool(s.failures) for s in samples)
                  + sum(s.request_failures for s in samples))
        names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
        stats = (per_layer(samples, inputs, names) if trace
                 else end_to_end(setup_s, samples, attempted, failed))
        units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
        check_names = sorted({name for s in samples for name in s.checks})
        return {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": size,
            "correct": not any(s.failures for s in samples),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "inputs": inputs.properties, "machine": machine(),
            "setup_s": setup_s,
            "checks": {name: {"passed": sum(s.checks.get(name) is True for s in samples),
                              "failed": sum(s.checks.get(name) is False for s in samples)}
                       for name in check_names},
            "failures": [f for s in samples for f in s.failures],
            "samples": [{"traced": s.traced, "exit_code": s.exit_code,
                         "wall_s": s.wall_s, "peak_rss_mb": s.peak_rss_mb,
                         "requests": s.requests, "failures": s.failures,
                         "layers": s.layers} for s in samples],
            "stats": stats,
            "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                        for name in names},
            "spans": [s.spans for s in samples if s.traced],
        }
    finally:
        if inputs is not None:
            inputs.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def machine() -> dict:
    import scipy
    import threadtone
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threadtone": threadtone.__version__, "git_sha": sha,
            "platform": platform.platform()}


def write_results(result: dict) -> Path:
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{result['workload']}-seed{result['seed']}"
            f"-trace{int(result['trace'])}")
    spans = result.pop("spans")
    if spans:
        (results_dir / f"{stem}-spans.json").write_text(
            json.dumps({"columns": ["name", "start", "end", "parent"],
                        "iterations": spans}), encoding="utf-8")
    path = results_dir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True),
                    encoding="utf-8")
    return path


def print_report(result: dict, bench: dict, path: Path) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  {kind}")
    print("inputs:  " + "  ".join(f"{k}={v}" for k, v in result["inputs"].items()))
    print("machine: " + "  ".join(f"{k}={v}" for k, v in result["machine"].items()))
    units = {m["name"]: m["unit"] for m in bench["per_layer"] + bench["end_to_end"]}
    units["failed_frac"] = "fraction"
    for name, s in result["stats"].items():
        print(f"  {name:30s} {s['median']:14.6g} {units[name]:9s} "
              f"median of {s['n']}  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g})")
    print(f"  operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, c in result["checks"].items():
        verdict = "ok" if not c["failed"] else "FAILED"
        print(f"  check {name:22s} {verdict}  ({c['passed']} passed, "
              f"{c['failed']} failed)")
    for failure in result["failures"]:
        print(f"  failure: {failure}")
    print(f"  results: {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="threadtone benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=[*SETUPS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop the children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "threadtone" / "__init__.py").is_file() or not SYNTH_CONFIG.is_file():
        print(f"error: the threadtone sources ({SRC}) or {SYNTH_CONFIG} are "
              f"missing; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import threadtone.report  # noqa: F401  (imported once, outside set-up timing)
    import threadtone.synth  # noqa: F401
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.workload == "all":
        runs = [(w, t) for w in SETUPS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    for workload, trace in runs:
        result = run_workload(workload, args.seed, args.seconds, trace,
                              args.size, bench)
        path = write_results(result)
        print_report(result, bench, path)
        results.append(result)

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
