"""Rendered outputs: coefficient tables, scatter figures, the pipeline.

Every rendered number is rounded to 5 significant digits in the text table,
while the CSV/JSON next to it carries the unrounded value; p-values below
1e-5 render as "< 0.00001". The pipeline writes a byte-deterministic bundle
(validation summary, features, agreement, correlations, per-model tables,
figures, manifest) so that identical inputs, seed and flags reproduce
identical bytes on any machine.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .agreement import (
    DimensionAgreement,
    agreement_report,
    correlation_report,
    render_correlations,
    write_agreement_csv,
    write_correlation_csv,
)
from .annotate import (
    AnnotationCache,
    Annotations,
    HttpBackend,
    MockBackend,
    annotate_corpus,
)
from .corpus import PostArrays, validate_corpus
from .dimensions import NAMES, AnnotationScale, dimension_by_name
from .errors import AnnotationError, OutputLocked, StatsError
from .features import FeatureTable, compute_feature_table, write_features_csv
from .regression import (
    DEFAULT_GRID,
    RegressionTable,
    STAR_SCHEMES,
    critical_value,
    fit_model,
    get_model_spec,
    run_all,
    stars_for,
)
from .svgplot import ScatterData, scatter_svg

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ANNOTATION = 3
EXIT_INFERENCE = 4

SIMPLE_MODELS = ("M1", "M2", "M3", "M4")  # one regressor: scatter-plottable
SIG_DIGITS = 5  # significant digits of every rounded number

_X_LABELS = {
    "dt_prev": "hours since the previous post in the discussion",
    "dt_parent": "hours since the parent post",
    "sib_older_mean": "mean score of older siblings",
    "parent_metric": "parent post score",
}


def format_sig(x: float) -> str:
    """Fixed-point with exactly SIG_DIGITS significant digits, counted
    after rounding (9.999996 is "10.000")."""
    if math.isnan(x):
        return "nan"
    if x == 0:
        return "0." + "0" * SIG_DIGITS
    exponent = int(f"{x:.{SIG_DIGITS - 1}e}".partition("e")[2])
    decimals = SIG_DIGITS - 1 - exponent
    if decimals <= 0:
        return f"{round(x, decimals):.0f}"
    return f"{x:.{decimals}f}"


def format_p(p: float) -> str:
    if p < 1e-5:
        return "< 0.00001"
    return format_sig(p)


def star_legend(scheme: str = "default") -> str:
    parts = [f"p < {threshold:g} '{symbol}'"
             for threshold, symbol in STAR_SCHEMES[scheme]]
    return "Sign. level: " + ", ".join(parts)


def render_table(table: RegressionTable, scheme: str = "default",
                 ) -> tuple[str, list[dict]]:
    """Aligned text plus full-precision CSV rows for one fitted model."""
    header = ["term", "estimate", "std_error", "p_value", "stars"]
    body = []
    csv_rows = []
    for term in table.terms:
        stars = stars_for(term.p_value, scheme)
        body.append([term.term, format_sig(term.estimate),
                     format_sig(term.std_error), format_p(term.p_value), stars])
        csv_rows.append({
            "term": term.term,
            "estimate": repr(term.estimate),
            "std_error": repr(term.std_error),
            "p_value": repr(term.p_value),
            "stars": stars,
        })
    widths = [max(len(header[i]), *(len(row[i]) for row in body))
              for i in range(len(header))]
    lines = [f"{table.model_id} response={table.dimension}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in body:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    lines.append(f"n_obs={table.n_obs} n_clusters={table.n_clusters} "
                 f"r_squared={format_sig(table.r_squared)}")
    lines.append(star_legend(scheme))
    return "\n".join(lines) + "\n", csv_rows


def write_table_files(table: RegressionTable, directory: Path,
                      scheme: str = "default") -> None:
    text, csv_rows = render_table(table, scheme)
    stem = f"{table.model_id}_{table.dimension}"
    (directory / f"{stem}.txt").write_text(text, encoding="utf-8")
    with open(directory / f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["term", "estimate", "std_error",
                                                "p_value", "stars"],
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)


def emit_scatter(features: FeatureTable, model_id: str, dimension: str,
                 cr_correction: bool = False, pvalue_dist: str = "t") -> str:
    """Fit a one-regressor model and render its scatter + fit + 95% band,
    whose critical value comes from the tables' reference distribution."""
    if model_id not in SIMPLE_MODELS:
        raise ValueError(f"{model_id} is not a single-regressor model")
    spec = get_model_spec(model_id)
    fit = fit_model(spec, features, dimension, cr_correction=cr_correction)
    term = spec.terms[0]
    dim = dimension_by_name(dimension)
    data = ScatterData(
        x=fit.x[:, 1], y=fit.y, intercept=float(fit.beta[0]),
        slope=float(fit.beta[1]), vcov=fit.vcov, x_label=_X_LABELS[term],
        y_label=f"{dim.negative_pole} (-) to {dim.positive_pole} (+)",
        title=f"{model_id}: {dimension} vs {term}")
    return scatter_svg(data, critical_value(fit.n_clusters, pvalue_dist))


# --- pipeline stages --------------------------------------------------------------
#
# One function per stage; run_pipeline and the CLI subcommands both call them.

@dataclass
class PipelineOptions:
    scale: AnnotationScale = AnnotationScale()
    replications: int = 4
    seed: int = 0
    mock: bool = False
    backend_url: str | None = None
    api_key_env: str = "ANNOTATOR_API_KEY"
    model: str = "mock"
    concurrency: int = 1
    max_retries: int = 3
    lenient: bool = False
    cr_correction: bool = False
    pvalue_dist: str = "t"
    star_scheme: str = "default"
    prev_scope: str = "discussion"
    m6_relax_sibling_filter: bool = False
    unanimity: bool = False

    def to_manifest(self) -> dict:
        """Every option that can change the outputs, with the scale flattened."""
        manifest = asdict(self)
        for name in ("backend_url", "api_key_env", "concurrency"):
            del manifest[name]
        scale = manifest.pop("scale")
        manifest["scale_min"], manifest["scale_max"] = scale["min"], scale["max"]
        return manifest


def annotate_stage(posts: PostArrays, texts: Sequence[str], cache_path: str | Path,
                   options: PipelineOptions) -> Annotations:
    """Annotate every reply's pair, cache-first. Returns the pairs' scores
    and the number of backend requests made (``Annotations.requests``);
    raises AnnotationError, also when no backend is configured."""
    if options.mock:
        backend = MockBackend(seed=options.seed, scale=options.scale,
                              model=options.model)
        cache_timestamp = 0
    elif options.backend_url:
        backend = HttpBackend(options.backend_url, options.api_key_env,
                              options.model)
        cache_timestamp = int(time.time())
    else:
        raise AnnotationError("no backend configured: mock mode is off and "
                              "there is no backend URL")
    cache = AnnotationCache(cache_path, options.replications)
    try:
        annotations = annotate_corpus(
            posts, texts, backend, cache, scale=options.scale,
            max_retries=options.max_retries,
            concurrency=options.concurrency,
            cache_timestamp=cache_timestamp)
    finally:
        cache.close()
        if isinstance(backend, HttpBackend):
            backend.close()
    return annotations


def write_agreement(items: Sequence[str], scores: np.ndarray,
                    options: PipelineOptions,
                    path: Path) -> list[DimensionAgreement]:
    """Replication reliability from pair x dimension x replication scores,
    the items keyed by pair hash; AnnotationError, before anything is
    written, if a score lies off the scale, whose points Fleiss' kappa counts."""
    scale = options.scale
    outside = np.argwhere((scores < scale.min) | (scores > scale.max))
    if len(outside):
        k, d, r = outside[0]
        raise AnnotationError(f"pair {items[k]} holds score {scores[k, d, r]}, "
                              f"outside the scale [{scale.min}, {scale.max}]")
    report = agreement_report(items, scores, scale=scale,
                              unanimity=options.unanimity)
    write_agreement_csv(report, path)
    return report


def write_regression(features: FeatureTable, options: PipelineOptions,
                     tables_dir: Path, summary_dir: Path,
                     grid: Sequence[tuple[str, str]] = DEFAULT_GRID,
                     ) -> tuple[list[RegressionTable], dict[str, str]]:
    """Fit the (model, dimension) grid, write one table pair per fit and
    regression_summary.json; per-model failures are logged and collected."""
    tables, errors = run_all(
        features, grid, cr_correction=options.cr_correction,
        pvalue_dist=options.pvalue_dist,
        m6_relax_sibling_filter=options.m6_relax_sibling_filter)
    for key, message in errors.items():
        log.warning("%s not fitted: %s", key, message)
    tables_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for table in tables:
        write_table_files(table, tables_dir, scheme=options.star_scheme)
        summary[f"{table.model_id}/{table.dimension}"] = {
            "n_obs": table.n_obs, "n_clusters": table.n_clusters,
            "r_squared": table.r_squared,
        }
    write_json(summary_dir / "regression_summary.json",
               {"models": summary, "errors": errors})
    return tables, errors


def write_figures(features: FeatureTable, tables: list[RegressionTable],
                  options: PipelineOptions, figures_dir: Path) -> int:
    """Scatter figures for the single-regressor models that were fitted;
    returns how many were written."""
    figures_dir.mkdir(exist_ok=True)
    n_figures = 0
    for table in tables:
        model_id, dimension = table.model_id, table.dimension
        if model_id not in SIMPLE_MODELS:
            continue
        try:
            svg = emit_scatter(features, model_id, dimension,
                               cr_correction=options.cr_correction,
                               pvalue_dist=options.pvalue_dist)
        except StatsError as exc:
            log.warning("figure %s/%s skipped: %s", model_id, dimension, exc)
            continue
        (figures_dir / f"{model_id}_{dimension}.svg").write_text(
            svg, encoding="utf-8")
        n_figures += 1
    return n_figures


def write_report(features: FeatureTable, options: PipelineOptions,
                 out_dir: str | Path,
                 pair_scores: tuple[Sequence[str], np.ndarray] | None = None,
                 ) -> tuple[list[RegressionTable], dict[str, str], int]:
    """The bundle's report half, shared by ``run_pipeline`` and the report
    command: agreement.csv (only given the pair hashes and their pair x
    dimension x replication scores), correlations.{csv,txt}, tables/,
    regression_summary.json and, when some model was fitted, figures/.
    Returns the tables, the per-model errors and the number of figures."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if pair_scores is not None:
        write_agreement(*pair_scores, options, out_dir / "agreement.csv")
    correlations = correlation_report(features.post_id, np.column_stack(
        [features.column("metric", name) for name in NAMES]))
    write_correlation_csv(correlations, out_dir / "correlations.csv")
    (out_dir / "correlations.txt").write_text(
        render_correlations(correlations), encoding="utf-8")
    tables, errors = write_regression(features, options, out_dir / "tables",
                                      out_dir)
    n_figures = (write_figures(features, tables, options, out_dir / "figures")
                 if tables else 0)
    return tables, errors, n_figures


# --- pipeline -------------------------------------------------------------------

def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def annotation_content_hash(items: Sequence[str], scores: np.ndarray) -> str:
    """Order-independent hash of item x dimension x replication raw scores:
    sha256 of the sorted lines ``item|dimension|score,score,...``, each
    ended by a newline. The items must be distinct and hold no ``|``
    (ValueError otherwise): then the items sorted by ``item + "|"``, each
    with its lines in sorted dimension order, give the lines in sorted
    order, so they are hashed one item at a time. Replication rows repeat,
    so each distinct one is formatted once."""
    if len(set(items)) != len(items) or any("|" in item for item in items):
        raise ValueError("annotation items must be distinct and hold no '|'")
    scores = np.ascontiguousarray(scores, np.int64)
    rows = scores.view(np.dtype((np.void, scores.itemsize * scores.shape[2])))
    distinct, code = np.unique(rows.ravel(), return_inverse=True)
    text = [",".join(map(str, np.frombuffer(row, np.int64).tolist()))
            for row in distinct.tolist()]
    code = code.reshape(len(items), len(NAMES)).tolist()
    dims = sorted(range(len(NAMES)), key=lambda d: NAMES[d] + "|")
    h = hashlib.sha256()
    for k in sorted(range(len(items)), key=lambda k: items[k] + "|"):
        h.update("".join(f"{items[k]}|{NAMES[d]}|{text[code[k][d]]}\n"
                         for d in dims).encode("utf-8"))
    return h.hexdigest()


@contextmanager
def pipeline_lock(output_dir: Path) -> Iterator[None]:
    """One pipeline instance per output directory."""
    path = output_dir / ".threadtone.lock"
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        raise OutputLocked(
            f"output directory is locked by another run ({path}); "
            f"remove the lock file if that run is dead") from None
    try:
        yield
    finally:
        path.unlink(missing_ok=True)


def run_pipeline(corpus_path: str | Path, cache_path: str | Path,
                 output_dir: str | Path, options: PipelineOptions) -> int:
    """validate -> annotate (cache-first) -> features -> agreement ->
    regress -> render. Returns the exit code of the first failing stage;
    outputs of earlier stages are preserved."""
    # stage 1: validate (every violation), before any output is written
    posts, texts, diagnostics = validate_corpus(corpus_path)
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    with pipeline_lock(output_dir):
        failed = bool(diagnostics) and not options.lenient
        validation = {
            "ok": not failed,
            "diagnostics": diagnostics,
            "n_discussions": len(posts.discussion_ids),
            "n_posts": len(posts.posts),
        }
        write_json(output_dir / "validation.json", validation)
        if failed:
            log.error("corpus validation failed (%d diagnostics)",
                      len(diagnostics))
            return EXIT_VALIDATION

        # stage 2: annotate, cache-first
        try:
            annotations = annotate_stage(posts, texts, cache_path, options)
        except AnnotationError as exc:
            log.error("annotation failed: %s", exc)
            return EXIT_ANNOTATION
        log.info("annotation complete: %d posts, %d backend calls",
                 len(annotations), annotations.requests)

        # stage 3: features
        features = compute_feature_table(annotations.posts, annotations.means(),
                                         strict=False,
                                         prev_scope=options.prev_scope)
        write_features_csv(features, output_dir / "features.csv")

        # stages 4-6: agreement + correlations, regress, figures
        tables, errors, n_figures = write_report(
            features, options, output_dir,
            (annotations.pair_hashes, annotations.scores))
        if not tables:
            log.error("all regressions failed")
            return EXIT_INFERENCE

        manifest = {
            "tool": "threadtone",
            "version": __version__,
            "corpus_sha256": file_sha256(corpus_path),
            "annotations_sha256": annotation_content_hash(
                annotations.pair_hashes, annotations.scores),
            "options": options.to_manifest(),
            "n_annotated_posts": len(annotations),
            "n_feature_rows": len(features),
            "n_tables": len(tables),
            "n_figures": n_figures,
            "regression_errors": errors,
        }
        write_json(output_dir / "manifest.json", manifest)
        return EXIT_OK


def write_json(path: str | Path, obj: dict) -> None:
    """Indented, key-sorted JSON with a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
