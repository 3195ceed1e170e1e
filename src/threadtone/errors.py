"""Exception taxonomy shared across the package.

Corpus errors carry enough context (discussion, post, input line) to be
printed as one-line diagnostics by the CLI.
"""

from __future__ import annotations


class ThreadToneError(Exception):
    """Base class for all package errors."""


# --- corpus / structural errors ---------------------------------------------

class CorpusError(ThreadToneError):
    def __init__(self, message: str, *, discussion_id: str | None = None,
                 post_id: str | None = None, line_no: int | None = None):
        super().__init__(message)
        self.discussion_id = discussion_id
        self.post_id = post_id
        self.line_no = line_no

    def diagnostic(self) -> str:
        parts = [type(self).__name__]
        if self.line_no is not None:
            parts.append(f"line={self.line_no}")
        if self.discussion_id is not None:
            parts.append(f"discussion={self.discussion_id}")
        if self.post_id is not None:
            parts.append(f"post={self.post_id}")
        return " ".join(parts) + f": {self}"


class MalformedRecord(CorpusError):
    pass


class MissingTimestamp(CorpusError):
    pass


class DuplicateId(CorpusError):
    pass


class OrphanPost(CorpusError):
    pass


class MultipleRoots(CorpusError):
    pass


class CycleDetected(CorpusError):
    pass


# --- annotation errors -------------------------------------------------------

class AnnotationError(ThreadToneError):
    pass


class EmptyText(AnnotationError):
    pass


class AnnotationParseError(AnnotationError):
    """A backend response that violates the strict output schema."""


class NotJson(AnnotationParseError):
    pass


class MissingKey(AnnotationParseError):
    pass


class ExtraKey(AnnotationParseError):
    pass


class OutOfRange(AnnotationParseError):
    pass


class NonInteger(AnnotationParseError):
    pass


class BackendError(AnnotationError):
    """Transport-level failure talking to an annotation backend."""


class AnnotationFailed(AnnotationError):
    """All retries exhausted for one (pair, replication) request;
    ``requests`` counts the backend requests made until then."""

    def __init__(self, message: str, requests: int = 0):
        super().__init__(message)
        self.requests = requests


class AmbiguousModel(AnnotationError):
    """A cache read without a model id holds records from several models."""


# --- pipeline errors ---------------------------------------------------------

class OutputLocked(ThreadToneError, RuntimeError):
    """Another run holds the output directory's lock file."""


# --- feature-table errors ----------------------------------------------------

class FeatureError(ThreadToneError):
    pass


class MissingAnnotation(FeatureError):
    pass


class FeatureFileError(ThreadToneError):
    """A feature CSV that cannot be read or is not a feature table."""


# --- statistics errors -------------------------------------------------------

class StatsError(ThreadToneError):
    pass


class DegenerateData(StatsError):
    pass


class SingularDesign(StatsError):
    pass


class InsufficientSample(StatsError):
    pass


class EmptySample(StatsError):
    pass
