"""Exception types shared across the pipeline.

Each class carries the CLI exit code it maps to: 1 for usage problems,
2 for anything wrong with an input file, 3 for internal invariant
violations. Running out of memory exits 2 too, as input too large for
the machine. Errors raised while parsing a file embed ``path:line`` in
their message so the CLI can print a single-line diagnostic. A problem
raised at a single site uses ``PipelineError`` or ``UsageError`` itself.
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class PipelineError(Exception):
    exit_code = EXIT_INPUT


class UsageError(PipelineError):
    exit_code = EXIT_USAGE


class InvariantViolation(PipelineError):
    exit_code = EXIT_INTERNAL


# -- input/format problems (exit 2) --

class MalformedLine(PipelineError):
    """A classification TSV line with the wrong shape or a bad token."""


class MalformedRecord(PipelineError):
    """A publication record with the wrong shape or a non-integer year."""


class UnknownTopic(PipelineError):
    """A topic referenced somewhere but absent from the topic->area table."""


class EmptyTable(PipelineError):
    """A classification file produced no usable entries."""


class MissingInput(PipelineError):
    """A required input file does not exist."""


# -- library API misuse (exit 1 if ever surfaced through the CLI) --

class InvalidSpec(UsageError):
    """A configuration object violates its own invariants."""


class EmptySet(UsageError):
    """Transition counting requires non-empty topic sets on both sides."""
