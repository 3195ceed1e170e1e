"""One timed iteration, run in its own process by ``run.py``.

    python3 perfbench/iteration.py SPEC.json

SPEC names the package source directory, the entry point (``pipeline`` for
``run_pipeline``, ``recovery`` for ``recovery_experiment``), its inputs,
whether to trace, and where to write the result. The result holds the wall
time of the call alone (imports and tracing set-up are outside it), the
pipeline's exit code or the recovery report, and with tracing the layer
totals and the spans. The process exits with the pipeline's exit code, so
the parent can read this process's own peak RSS from ``os.wait4``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import layertrace
    from threadtone.report import PipelineOptions, run_pipeline
    from threadtone.synth import SynthConfig, recovery_experiment

    tracer = None
    if spec["trace"]:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)

    result: dict = {}
    if spec["kind"] == "pipeline":
        options = PipelineOptions(**spec["options"])
        start = time.perf_counter()
        exit_code = run_pipeline(spec["corpus"], spec["cache"],
                                 spec["output_dir"], options)
        result["wall_s"] = time.perf_counter() - start
    else:
        config = SynthConfig.from_json(spec["config"])
        start = time.perf_counter()
        report = recovery_experiment(config, spec["n_runs"])
        result["wall_s"] = time.perf_counter() - start
        result["recovery"] = {
            "n_runs": report.n_runs, "n_failed": report.n_failed,
            "results": [dataclasses.asdict(r) for r in report.results]}
        exit_code = 0
    result["exit_code"] = exit_code

    if tracer is not None:
        result["layers"] = layer_totals(tracer)
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return exit_code


def layer_totals(tracer) -> dict[str, float]:
    """Per-iteration layer numbers; the stub's request count and the cache
    file size are added by the parent, which owns those resources."""
    requests_ms = sorted(d * 1000.0 for d in tracer.durations("annotate.request"))
    counts = tracer.counts
    posts = counts["features.posts"]
    table_s = tracer.totals("features.table")
    return {
        "corpus.validate_s": tracer.totals("corpus.validate"),
        "annotate.cache_load_s": tracer.totals("annotate.cache_load"),
        "annotate.self_s": tracer.self_time("annotate.corpus"),
        "annotate.cache_hits": counts["annotate.cache_hits"],
        "annotate.cache_misses": counts["annotate.cache_misses"],
        "annotate.backend_calls": len(requests_ms),
        "annotate.request_p50_ms": percentile(requests_ms, 0.50),
        "annotate.request_p99_ms": percentile(requests_ms, 0.99),
        "annotate.request_errors": (counts["annotate.request.errors"]
                                    + counts["annotate.parse_errors"]),
        "annotate.parsed": counts["annotate.parsed"],
        "features.table_s": table_s,
        "features.us_per_post": table_s / posts * 1e6 if posts else 0.0,
        "features.csv_s": tracer.totals("features.csv"),
        "agreement.report_s": tracer.totals("agreement.report"),
        "agreement.correlation_s": tracer.totals("agreement.correlation"),
        "regression.run_all_s": tracer.totals("regression.run_all"),
        "regression.fit_calls": len(tracer.durations("regression.fit_model")),
        "regression.filter_rows_s": tracer.totals("regression.filter_rows"),
        "regression.ols_s": tracer.totals("regression.ols"),
        "report.tables_s": tracer.totals("report.tables"),
        "report.figures_s": tracer.totals("report.figures"),
        "svgplot.render_s": tracer.totals("svgplot.render"),
        "synth.generate_s": tracer.totals("synth.generate"),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
