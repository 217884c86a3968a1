"""Error taxonomy shared by every module.

Three input failure kinds are distinguished so callers (and the CLI
exit-code mapping) can react uniformly: malformed data, violated
mathematical preconditions, and configured size caps.  A fourth kind marks
a failed internal cross-check, a fault of the package rather than of its
input.
"""


class JoinlabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(JoinlabError):
    """Malformed or ill-typed input: bad weights, non-bijections, floats."""


class PreconditionError(JoinlabError):
    """Structurally valid input that violates a documented precondition."""


class ResourceLimitError(JoinlabError):
    """A configured size cap would be exceeded."""


class JoinlabInternalError(JoinlabError):
    """An internal cross-check failed; indicates a solver bug."""
