"""Exception types shared across the pipeline.

Every data-level failure derives from PipelineError so the CLI can map it
to a single exit code; BudgetExhausted gets its own code.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline data errors (CLI exit code 2)."""


class MalformedRecord(PipelineError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"malformed record at line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class NonMonotonicTimestamp(PipelineError):
    """Batch timestamps must be strictly increasing; a violation signals a corrupted capture."""

    def __init__(self, prev, next):  # noqa: A002 - mirrors the (prev, next) pair
        super().__init__(f"batch timestamp {next} does not advance past {prev}")
        self.prev = prev
        self.next = next


class InvalidBbox(PipelineError):
    pass


class InvalidConfig(PipelineError):
    pass


class EmptyIndex(PipelineError):
    pass


class EmptyCatalog(PipelineError):
    pass


class BudgetExhausted(PipelineError):
    """Query budget used up (CLI exit code 3)."""

    def __init__(self, max_queries: int):
        super().__init__(f"query budget of {max_queries} exhausted")
        self.max_queries = max_queries


class ClientError(PipelineError):
    def __init__(self, status: str, retriable: bool):
        super().__init__(f"places client error: {status} ({'retriable' if retriable else 'fatal'})")
        self.status = status
        self.retriable = retriable


class MissingTypes(PipelineError):
    pass


class TargetNotFound(PipelineError):
    pass


class UnmappedPrimaryType(PipelineError):
    def __init__(self, primary_type: str):
        super().__init__(f"primary type {primary_type!r} has no group in the taxonomy")
        self.primary_type = primary_type


class OutOfOperatingHours(PipelineError):
    pass


class DanglingPoiReference(PipelineError):
    pass


class UsageError(Exception):
    """Bad command-line invocation (CLI exit code 1); not a data error."""
