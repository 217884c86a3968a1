"""Error taxonomy shared by every module.

Three input failure kinds are distinguished so callers (and the CLI
exit-code mapping) can react uniformly: malformed data, violated
mathematical preconditions, and configured size caps.  A fourth kind marks
a failed internal cross-check, a fault of the package rather than of its
input.

Every input error names the input that caused it: a field path such as
``spaces.<name>.weights[0]`` or ``<file>.nonzero[3]``, or a command line
flag.  ``naming`` is the one place that adds that name to a message.
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


_INPUT_ERRORS = (InvalidInputError, PreconditionError, ResourceLimitError)


class naming:
    """Context manager that re-raises an input error from inside it as the
    same kind, with the message ``field: message``.  Internal errors pass
    through unchanged.  A class rather than a generator, as it wraps every
    entry of the decode loops."""

    __slots__ = ("field",)

    def __init__(self, field: str):
        self.field = field

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, _INPUT_ERRORS):
            raise kind(f"{self.field}: {exc}") from exc
        return False
