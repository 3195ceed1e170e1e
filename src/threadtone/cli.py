"""Command-line interface: validate / annotate / features / agreement /
regress / report / synth / pipeline."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from itertools import product
from pathlib import Path

from . import __version__
from .annotate import AnnotationCache, cached_pair_scores, load_annotation_means
from .corpus import load_corpus, save_corpus, validate_corpus
from .dimensions import NAMES, AnnotationScale
from .errors import (
    AnnotationError,
    CorpusError,
    FeatureError,
    FeatureFileError,
    OutputLocked,
)
from .features import compute_feature_table, read_features_csv, write_features_csv
from .regression import DEFAULT_GRID, MODEL_IDS
from .report import (
    EXIT_ANNOTATION,
    EXIT_INFERENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    PipelineOptions,
    annotate_stage,
    run_pipeline,
    write_agreement,
    write_regression,
    write_report,
)
from .synth import SynthConfig, generate_corpus, recovery_experiment, write_cache_records

log = logging.getLogger("threadtone")

_OPTION_FIELDS = {field.name for field in dataclasses.fields(PipelineOptions)}


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("scoring options")
    group.add_argument("--scale-min", type=int, default=-5)
    group.add_argument("--scale-max", type=int, default=5)
    group.add_argument("--replications", type=int, default=4)
    group.add_argument("--seed", type=int, default=0)
    return common


def _backend_options() -> argparse.ArgumentParser:
    backend = argparse.ArgumentParser(add_help=False)
    group = backend.add_argument_group("backend options")
    group.add_argument("--backend-url")
    group.add_argument("--api-key-env", default="ANNOTATOR_API_KEY")
    group.add_argument("--model", default="mock")
    group.add_argument("--mock", action="store_true",
                       help="use the deterministic offline backend")
    group.add_argument("--concurrency", type=int, default=1)
    group.add_argument("--max-retries", type=int, default=3)
    return backend


def _inference_options() -> argparse.ArgumentParser:
    inf = argparse.ArgumentParser(add_help=False)
    group = inf.add_argument_group("inference options")
    group.add_argument("--cr-correction", action="store_true",
                       help="apply the CR1 small-sample factor to the sandwich")
    group.add_argument("--pvalue", dest="pvalue_dist", choices=("t", "normal"),
                       default="t", help="reference distribution for p-values")
    group.add_argument("--stars-scheme", dest="star_scheme",
                       choices=("default", "four-star"), default="default")
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
    backend = _backend_options()
    inference = _inference_options()

    p = sub.add_parser("validate", help="check an interchange corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="drop invalid discussions instead of failing")

    p = sub.add_parser("annotate", parents=[common, backend],
                       help="score parent-child pairs via a backend")
    p.add_argument("--corpus", required=True)
    p.add_argument("--cache", required=True)

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
    p.add_argument("--model", dest="model_id", default="all",
                   choices=("all",) + MODEL_IDS)
    p.add_argument("--dimension", default="all",
                   choices=("all",) + NAMES)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("report", parents=[common, inference],
                       help="render tables and figures from a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--cache", help="annotation cache (enables agreement stats)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--unanimity", action="store_true")

    p = sub.add_parser("synth",
                       help="generate a synthetic corpus, or run a "
                            "coefficient-recovery experiment")
    p.add_argument("action", nargs="?", choices=("recover",),
                   help="omit to generate; 'recover' for the experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-corpus")
    p.add_argument("--out-cache")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--out", help="recovery summary JSON")

    p = sub.add_parser("pipeline", parents=[common, backend, inference],
                       help="run the whole analysis end to end")
    p.add_argument("--corpus", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--prev-scope", choices=("discussion", "branch"),
                   default="discussion")
    p.add_argument("--unanimity", action="store_true")
    return parser


def _options(args: argparse.Namespace) -> PipelineOptions:
    """The PipelineOptions the parsed flags name; a field the subcommand has
    no flag for keeps its default."""
    given = vars(args)
    values = {name: given[name] for name in _OPTION_FIELDS & given.keys()}
    if "scale_min" in given:
        values["scale"] = AnnotationScale(args.scale_min, args.scale_max)
    return PipelineOptions(**values)


def _existing_cache(path: str, n_replications: int) -> AnnotationCache:
    """The cache a read-only command reads. Unlike ``annotate`` and
    ``pipeline``, which create a missing cache, it must exist."""
    try:
        Path(path).stat()
    except OSError as exc:
        raise AnnotationError(f"cannot read cache {Path(path)}: "
                              f"{exc.strerror}") from None
    return AnnotationCache(path, n_replications)


def cmd_validate(args: argparse.Namespace) -> int:
    posts, _, diagnostics = validate_corpus(args.corpus, log_diagnostics=False)
    for line in diagnostics:
        print(line)
    if diagnostics and not args.lenient:
        return EXIT_VALIDATION
    print(f"ok: {len(posts.discussion_ids)} discussions, "
          f"{len(posts.posts)} posts")
    return EXIT_OK


def cmd_annotate(args: argparse.Namespace) -> int:
    annotations = annotate_stage(*load_corpus(args.corpus), args.cache,
                                 _options(args))
    print(f"annotated {len(annotations)} posts "
          f"({annotations.requests} backend calls, cache {args.cache})")
    return EXIT_OK


def cmd_features(args: argparse.Namespace) -> int:
    options = _options(args)
    posts, texts = load_corpus(args.corpus)
    means = load_annotation_means(
        posts, texts, _existing_cache(args.annotations, options.replications),
        scale=options.scale)
    features = compute_feature_table(posts, means, strict=args.strict,
                                     prev_scope=options.prev_scope)
    write_features_csv(features, args.out)
    print(f"wrote {len(features)} feature rows to {args.out}")
    return EXIT_OK


def cmd_agreement(args: argparse.Namespace) -> int:
    options = _options(args)
    items, scores = cached_pair_scores(
        _existing_cache(args.cache, options.replications))
    report = write_agreement(items, scores, options, Path(args.out))
    for row in report:
        print(f"{row.dimension}: alpha={row.krippendorff_alpha:.3f} "
              f"kappa={row.fleiss_kappa:.3f} n_items={row.n_items}")
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    if args.model_id == "all" and args.dimension == "all":
        grid = DEFAULT_GRID
    else:
        models = MODEL_IDS if args.model_id == "all" else (args.model_id,)
        dims = NAMES if args.dimension == "all" else (args.dimension,)
        grid = tuple(product(models, dims))
    out_dir = Path(args.out)
    tables, _ = write_regression(read_features_csv(args.features),
                                 _options(args), out_dir, out_dir, grid)
    print(f"wrote {len(tables)} tables to {out_dir}")
    return EXIT_OK if tables else EXIT_INFERENCE


def cmd_report(args: argparse.Namespace) -> int:
    options = _options(args)
    # read the cache first: a cache that cannot be used exits before any
    # output is written
    cached = (cached_pair_scores(_existing_cache(args.cache, options.replications))
              if args.cache else None)
    features = read_features_csv(args.features)
    tables, _, _ = write_report(features, options, args.output_dir, cached)
    print(f"wrote {len(tables)} tables to {Path(args.output_dir)}")
    return EXIT_OK if tables else EXIT_INFERENCE


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        config = SynthConfig.from_json(args.config)
    except (OSError, ValueError, TypeError) as exc:
        print(f"invalid synth config {args.config}: {exc}", file=sys.stderr)
        return 2
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
    if config.continuous:
        print("continuous-mode configs produce no integer cache",
              file=sys.stderr)
        return 2
    result = generate_corpus(config)
    save_corpus(result.corpus, args.out_corpus)
    write_cache_records(result.cache_records, args.out_cache)
    print(f"generated {len(result.arrays.posts)} posts in "
          f"{len(result.arrays.discussion_ids)} discussions "
          f"({result.truncations} truncated scores)")
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    code = run_pipeline(args.corpus, args.cache, args.output_dir, _options(args))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if "scale_min" in vars(args):
        try:
            AnnotationScale(args.scale_min, args.scale_max)
        except ValueError as exc:
            parser.error(f"--scale-min/--scale-max: {exc}")
    for flag, least in (("concurrency", 1), ("max_retries", 0), ("runs", 1),
                        ("replications", 1)):
        if vars(args).get(flag, least) < least:
            parser.error(f"--{flag.replace('_', '-')} must be >= {least}")
    try:
        return _COMMANDS[args.command](args)
    except CorpusError as err:
        print(err.diagnostic(), file=sys.stderr)
        return EXIT_VALIDATION
    except (FeatureFileError, OutputLocked) as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        if exc.filename is None:
            raise
        corpus = vars(args).get("corpus")
        if corpus is not None and Path(exc.filename) == Path(corpus):
            print(f"cannot read corpus {corpus}: {exc.strerror}", file=sys.stderr)
        else:  # an output file or directory
            print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    except (AnnotationError, FeatureError) as exc:  # FeatureError: --strict
        print(f"annotation failed: {exc}", file=sys.stderr)
        return EXIT_ANNOTATION


if __name__ == "__main__":
    sys.exit(main())
