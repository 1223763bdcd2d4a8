"""Exception types shared across the pipeline.

Every data-level failure is a PipelineError, which the CLI maps to exit
code 2; BudgetExhausted gets its own code. The subclasses are the failures
something tells apart: a bad feed or artifact record names its line, a bad
input value its file and key, and the harvest keeps its partial results on
a budget or client error.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline data errors (CLI exit code 2)."""


class MalformedRecord(PipelineError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"malformed record at line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class InvalidConfig(PipelineError):
    """An input value out of its range: a config, scenario, taxonomy, POI or truth file."""


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


class UsageError(Exception):
    """Bad command-line invocation (CLI exit code 1); not a data error."""
