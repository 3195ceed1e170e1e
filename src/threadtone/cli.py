"""Command-line interface: validate / annotate / features / agreement /
regress / report / synth / pipeline."""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .agreement import (
    agreement_report,
    correlation_report,
    render_correlations,
    write_agreement_csv,
    write_correlation_csv,
)
from .annotate import (
    AnnotationCache,
    BackendConfig,
    HttpBackend,
    MockBackend,
    annotate_corpus,
    load_annotation_means,
)
from .corpus import load_corpus, validate_corpus
from .dimensions import DIMENSIONS, AnnotationScale
from .errors import AnnotationError, CorpusError, StatsError
from .features import compute_feature_table, read_features_csv, write_features_csv
from .regression import (
    MODEL_IDS,
    get_model_spec,
    run_all,
    run_model,
)
from .report import (
    EXIT_ANNOTATION,
    EXIT_INFERENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    PipelineOptions,
    SIMPLE_MODELS,
    emit_scatter,
    run_pipeline,
    write_table_files,
    _write_json,
)
from .synth import SynthConfig, generate_corpus, recovery_experiment, write_cache_records
from .corpus import save_corpus

log = logging.getLogger("threadtone")


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("scoring options")
    group.add_argument("--scale-min", type=int, default=-5)
    group.add_argument("--scale-max", type=int, default=5)
    group.add_argument("--replications", type=int, default=4)
    group.add_argument("--seed", type=int, default=0)
    return common


def _inference_options() -> argparse.ArgumentParser:
    inf = argparse.ArgumentParser(add_help=False)
    group = inf.add_argument_group("inference options")
    group.add_argument("--cr-correction", action="store_true",
                       help="apply the CR1 small-sample factor to the sandwich")
    group.add_argument("--pvalue", choices=("t", "normal"), default="t",
                       help="reference distribution for p-values")
    group.add_argument("--stars-scheme", choices=("default", "four-star"),
                       default="default")
    group.add_argument("--m6-relax-sibling-filter", action="store_true",
                       help="drop M6's older-sibling sample restriction")
    return inf


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadtone",
        description="Reply-tree reconstruction, replicated conflict "
                    "annotation, and cluster-robust regression analysis.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()
    inference = _inference_options()

    p = sub.add_parser("validate", help="check an interchange corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="drop invalid discussions instead of failing")

    p = sub.add_parser("annotate", parents=[common],
                       help="score parent-child pairs via a backend")
    p.add_argument("--corpus", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--backend-url")
    p.add_argument("--api-key-env", default="ANNOTATOR_API_KEY")
    p.add_argument("--model", default="mock")
    p.add_argument("--mock", action="store_true",
                   help="use the deterministic offline backend")
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--max-retries", type=int, default=3)

    p = sub.add_parser("features", parents=[common],
                       help="export the regression feature table")
    p.add_argument("--corpus", required=True)
    p.add_argument("--annotations", required=True, help="annotation cache path")
    p.add_argument("--out", required=True)
    p.add_argument("--prev-scope", choices=("discussion", "branch"),
                   default="discussion")
    p.add_argument("--strict", action="store_true",
                   help="fail on unannotated non-root posts")

    p = sub.add_parser("agreement", parents=[common],
                       help="replication-reliability statistics from a cache")
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--unanimity", action="store_true",
                   help="all-rater agreement proportions instead of pairwise")

    p = sub.add_parser("regress", parents=[inference],
                       help="fit models on an exported feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--model", default="all",
                   choices=("all",) + MODEL_IDS)
    p.add_argument("--dimension", default="all",
                   choices=("all",) + tuple(d.name for d in DIMENSIONS))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("report", parents=[common, inference],
                       help="render tables and figures from a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--cache", help="annotation cache (enables agreement stats)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--unanimity", action="store_true")

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic corpus, or run a "
                            "coefficient-recovery experiment")
    p.add_argument("action", nargs="?", choices=("recover",),
                   help="omit to generate; 'recover' for the experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-corpus")
    p.add_argument("--out-cache")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--out", help="recovery summary JSON")

    p = sub.add_parser("pipeline", parents=[common, inference],
                       help="run the whole analysis end to end")
    p.add_argument("--corpus", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--backend-url")
    p.add_argument("--api-key-env", default="ANNOTATOR_API_KEY")
    p.add_argument("--model", default="mock")
    p.add_argument("--mock", action="store_true")
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--max-retries", type=int, default=3)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--prev-scope", choices=("discussion", "branch"),
                   default="discussion")
    p.add_argument("--unanimity", action="store_true")
    return parser


def _scale(args: argparse.Namespace) -> AnnotationScale:
    return AnnotationScale(args.scale_min, args.scale_max)


def cmd_validate(args: argparse.Namespace) -> int:
    # always parse in collecting mode so every violation gets its line
    corpus, diagnostics = validate_corpus(args.corpus, lenient=True)
    for line in diagnostics:
        print(line)
    if diagnostics and not args.lenient:
        return EXIT_VALIDATION
    print(f"ok: {len(corpus.discussions)} discussions, "
          f"{len(corpus.posts)} posts")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    try:
        corpus = load_corpus(args.corpus)
    except CorpusError as err:
        print(err.diagnostic(), file=sys.stderr)
        return EXIT_VALIDATION
    scale = _scale(args)
    if args.mock:
        backend = MockBackend(seed=args.seed, scale=scale, model=args.model)
        cache_timestamp = 0
    else:
        if not args.backend_url:
            print("either --mock or --backend-url is required", file=sys.stderr)
            return EXIT_ANNOTATION
        backend = HttpBackend(BackendConfig(
            url=args.backend_url, api_key_env=args.api_key_env,
            model=args.model, max_retries=args.max_retries,
            concurrency=args.concurrency))
        cache_timestamp = int(time.time())
    cache = AnnotationCache(args.cache)
    try:
        records = annotate_corpus(corpus, backend, cache, scale=scale,
                                  n_replications=args.replications,
                                  max_retries=args.max_retries,
                                  concurrency=args.concurrency,
                                  cache_timestamp=cache_timestamp)
    except AnnotationError as exc:
        print(f"annotation failed: {exc}", file=sys.stderr)
        return EXIT_ANNOTATION
    finally:
        cache.close()
    print(f"annotated {len(records)} posts "
          f"({backend.calls} backend calls, cache {args.cache})")
    return EXIT_OK


def cmd_features(args: argparse.Namespace) -> int:
    try:
        corpus = load_corpus(args.corpus)
    except CorpusError as err:
        print(err.diagnostic(), file=sys.stderr)
        return EXIT_VALIDATION
    scale = _scale(args)
    cache = AnnotationCache(args.annotations)
    try:
        means = load_annotation_means(corpus, cache, scale=scale,
                                      n_replications=args.replications)
    except AnnotationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ANNOTATION
    features = compute_feature_table(corpus, means, strict=args.strict,
                                     prev_scope=args.prev_scope)
    write_features_csv(features, args.out)
    print(f"wrote {len(features)} feature rows to {args.out}")
    return EXIT_OK


def cmd_agreement(args: argparse.Namespace) -> int:
    cache = AnnotationCache(args.cache)
    try:
        by_pair = cache.index_by_pair(args.replications)
    except AnnotationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_ANNOTATION
    scores_by_dimension = {
        dim.name: {pair: dims[dim.name] for pair, dims in by_pair.items()
                   if dim.name in dims}
        for dim in DIMENSIONS
    }
    report = agreement_report(scores_by_dimension, scale=_scale(args),
                              unanimity=args.unanimity)
    write_agreement_csv(report, args.out)
    for row in report:
        print(f"{row.dimension}: alpha={row.krippendorff_alpha:.3f} "
              f"kappa={row.fleiss_kappa:.3f} n_items={row.n_items}")
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    features = read_features_csv(args.features)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.model == "all" and args.dimension == "all":
        tables, errors = run_all(
            features, cr_correction=args.cr_correction, pvalue_dist=args.pvalue,
            star_scheme=args.stars_scheme,
            m6_relax_sibling_filter=args.m6_relax_sibling_filter)
    else:
        models = MODEL_IDS if args.model == "all" else (args.model,)
        dims = ([d.name for d in DIMENSIONS] if args.dimension == "all"
                else (args.dimension,))
        tables, errors = [], {}
        for model_id in models:
            spec = get_model_spec(model_id, args.m6_relax_sibling_filter)
            for dim_name in dims:
                try:
                    tables.append(run_model(
                        spec, features, dim_name, cr_correction=args.cr_correction,
                        pvalue_dist=args.pvalue, star_scheme=args.stars_scheme))
                except StatsError as exc:
                    errors[f"{model_id}/{dim_name}"] = str(exc)
    summary = {}
    for table in tables:
        write_table_files(table, out_dir, scheme=args.stars_scheme)
        summary[f"{table.model_id}/{table.dimension}"] = {
            "n_obs": table.n_obs, "n_clusters": table.n_clusters,
            "r_squared": table.r_squared,
        }
    _write_json(out_dir / "regression_summary.json",
                {"models": summary, "errors": errors})
    for key, message in errors.items():
        print(f"{key}: {message}", file=sys.stderr)
    print(f"wrote {len(tables)} tables to {out_dir}")
    return EXIT_OK if tables else EXIT_INFERENCE


def cmd_report(args: argparse.Namespace) -> int:
    features = read_features_csv(args.features)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables, errors = run_all(
        features, cr_correction=args.cr_correction, pvalue_dist=args.pvalue,
        star_scheme=args.stars_scheme,
        m6_relax_sibling_filter=args.m6_relax_sibling_filter)
    tables_dir = out_dir / "tables"
    tables_dir.mkdir(exist_ok=True)
    for table in tables:
        write_table_files(table, tables_dir, scheme=args.stars_scheme)
    figures_dir = out_dir / "figures"
    figures_dir.mkdir(exist_ok=True)
    fitted = {(t.model_id, t.dimension) for t in tables}
    for model_id in SIMPLE_MODELS:
        for dim in DIMENSIONS:
            if (model_id, dim.name) in fitted:
                svg = emit_scatter(features, model_id, dim.name,
                                   cr_correction=args.cr_correction)
                (figures_dir / f"{model_id}_{dim.name}.svg").write_text(
                    svg, encoding="utf-8")
    metric = {name: column.tolist() for name, column in features.metric.items()}
    means = {post_id: {name: values[i] for name, values in metric.items()
                       if values[i] == values[i]}  # NaN: absent
             for i, post_id in enumerate(features.post_id)}
    correlations = correlation_report(means)
    write_correlation_csv(correlations, out_dir / "correlations.csv")
    (out_dir / "correlations.txt").write_text(
        render_correlations(correlations), encoding="utf-8")
    if args.cache:
        cache = AnnotationCache(args.cache)
        try:
            by_pair = cache.index_by_pair(args.replications)
        except AnnotationError as exc:
            print(exc, file=sys.stderr)
            return EXIT_ANNOTATION
        scores_by_dimension = {
            dim.name: {pair: dims[dim.name] for pair, dims in by_pair.items()
                       if dim.name in dims}
            for dim in DIMENSIONS
        }
        report = agreement_report(scores_by_dimension, scale=_scale(args),
                                  unanimity=args.unanimity)
        write_agreement_csv(report, out_dir / "agreement.csv")
    print(f"wrote {len(tables)} tables to {out_dir}")
    return EXIT_OK if tables else EXIT_INFERENCE


def cmd_synth(args: argparse.Namespace) -> int:
    config = SynthConfig.from_json(args.config)
    if args.action == "recover":
        if not args.out:
            print("synth recover requires --out", file=sys.stderr)
            return 2
        report = recovery_experiment(config, n_runs=args.runs)
        report.to_json(args.out)
        for r in report.results:
            print(f"{r.dimension}/{r.term}: true={r.true_value:+.5f} "
                  f"mean={r.mean_estimate:+.5f} bias={r.bias:+.5f} "
                  f"coverage={r.coverage:.3f}")
        return EXIT_OK
    if not args.out_corpus or not args.out_cache:
        print("synth requires --out-corpus and --out-cache", file=sys.stderr)
        return 2
    result = generate_corpus(config)
    save_corpus(result.corpus, args.out_corpus)
    if result.cache_records is None:
        print("continuous-mode configs produce no integer cache",
              file=sys.stderr)
        return 2
    write_cache_records(result.cache_records, args.out_cache)
    print(f"generated {len(result.corpus.posts)} posts in "
          f"{len(result.corpus.discussions)} discussions "
          f"({result.truncations} truncated scores)")
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    options = PipelineOptions(
        scale=_scale(args),
        replications=args.replications,
        seed=args.seed,
        mock=args.mock,
        backend_url=args.backend_url,
        api_key_env=args.api_key_env,
        model=args.model,
        concurrency=args.concurrency,
        max_retries=args.max_retries,
        lenient=args.lenient,
        cr_correction=args.cr_correction,
        pvalue_dist=args.pvalue,
        star_scheme=args.stars_scheme,
        prev_scope=args.prev_scope,
        m6_relax_sibling_filter=args.m6_relax_sibling_filter,
        unanimity=args.unanimity,
    )
    code = run_pipeline(args.corpus, args.cache, args.output_dir, options)
    if code == EXIT_OK:
        print(f"pipeline complete: {args.output_dir}")
    else:
        print(f"pipeline failed with exit code {code}", file=sys.stderr)
    return code


_COMMANDS = {
    "validate": cmd_validate,
    "annotate": cmd_annotate,
    "features": cmd_features,
    "agreement": cmd_agreement,
    "regress": cmd_regress,
    "report": cmd_report,
    "synth": cmd_synth,
    "pipeline": cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
