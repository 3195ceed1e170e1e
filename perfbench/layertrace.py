"""Spans and counters around threadtone's layer functions, added from outside.

The package is not edited: ``install`` replaces each traced function with a
timing wrapper in every threadtone module namespace that holds it, since a
name imported with ``from .x import f`` is looked up in the importing module,
and methods on their class. Targets name the module that defines them; a
target the package no longer has raises, so a renamed or moved function
stops the traced run instead of reading as a metric of 0.

Spans are kept in memory as ``[name, start, end, parent]`` rows (``parent``
is the index of the enclosing span, -1 for none) and written out by the
caller when the run ends. The parent comes from a per-thread stack; a span
opened on a worker thread with an empty stack (annotation requests under
``--concurrency``) is parented to the innermost open span of the main thread,
which is the call that is waiting on that worker.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import Counter

# (span name, module, attribute) -- "Class.method" attributes patch the class.
SPAN_TARGETS = (
    ("corpus.validate", "threadtone.corpus", "validate_corpus"),
    ("annotate.cache_load", "threadtone.annotate", "AnnotationCache.__init__"),
    ("annotate.corpus", "threadtone.annotate", "annotate_corpus"),
    ("annotate.request", "threadtone.annotate", "HttpBackend.complete"),
    ("annotate.request", "threadtone.annotate", "MockBackend.complete"),
    ("features.table", "threadtone.features", "compute_feature_table"),
    ("features.csv", "threadtone.features", "write_features_csv"),
    ("agreement.report", "threadtone.agreement", "agreement_report"),
    ("agreement.correlation", "threadtone.agreement", "correlation_report"),
    ("regression.run_all", "threadtone.regression", "run_all"),
    ("regression.fit_model", "threadtone.regression", "fit_model"),
    ("regression.filter_rows", "threadtone.regression", "filter_rows"),
    ("regression.ols", "threadtone.regression", "ols_fit"),
    ("regression.ols", "threadtone.regression", "cluster_robust_vcov"),
    ("report.tables", "threadtone.report", "write_table_files"),
    ("report.figures", "threadtone.report", "emit_scatter"),
    ("svgplot.render", "threadtone.svgplot", "scatter_svg"),
    ("synth.generate", "threadtone.synth", "generate_corpus"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            if threading.current_thread() is threading.main_thread():
                stack = self._main_stack
            else:
                stack = []
            self._local.stack = stack
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, name: str, fn, errors: tuple[type[BaseException], ...] = ()):
        """``fn`` recording a span per call; raising one of ``errors`` also
        counts ``<name>.errors``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            try:
                parent = (stack or tracer._main_stack)[-1]
            except IndexError:  # no open span on this thread or the main one
                parent = -1
            row = [name, 0.0, 0.0, parent]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(row)
            stack.append(index)
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except errors:
                tracer.count(name + ".errors")
                raise
            finally:
                row[2] = time.perf_counter()
                stack.pop()

        return traced

    def totals(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus the union of the intervals
        their child spans cover (children on several threads overlap)."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for index, (n, start, end, _) in enumerate(self.spans):
            if n == name:
                total += (end - start) - union_length(children.get(index, []))
        return total


def union_length(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def _patch(module_name: str, attribute: str, make) -> None:
    """Replace ``module.attribute`` ("Class.method" patches the class) with
    ``make(original)``, in every threadtone module that imported it too.
    Raises AttributeError if the package no longer has the target."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, leaf)
    wrapped = make(original)
    if path:
        setattr(owner, leaf, wrapped)
        return
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "threadtone":
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer function in SPAN_TARGETS, plus the counters that are
    not spans: cache hits and misses, parse outcomes, feature-table posts."""
    import threadtone
    from threadtone.errors import AnnotationParseError, BackendError

    for module in pkgutil.iter_modules(threadtone.__path__):
        importlib.import_module(f"threadtone.{module.name}")
    for name, module_name, attribute in SPAN_TARGETS:
        errors = (BackendError,) if name == "annotate.request" else ()
        _patch(module_name, attribute,
               functools.partial(tracer.wrap, name, errors=errors))

    def count_get(get):
        def counted_get(cache, key):
            value = get(cache, key)
            tracer.count("annotate.cache_hits" if value is not None
                         else "annotate.cache_misses")
            return value
        return counted_get

    def count_parse(parse):
        def counted_parse(*args, **kwargs):
            try:
                scores = parse(*args, **kwargs)
            except AnnotationParseError:
                tracer.count("annotate.parse_errors")
                raise
            tracer.count("annotate.parsed")
            return scores
        return counted_parse

    def count_posts(table):
        def counted_table(corpus, *args, **kwargs):
            tracer.count("features.posts", len(corpus.posts))
            return table(corpus, *args, **kwargs)
        return counted_table

    _patch("threadtone.annotate", "AnnotationCache.get", count_get)
    _patch("threadtone.annotate", "parse_annotation_json", count_parse)
    _patch("threadtone.features", "compute_feature_table", count_posts)
