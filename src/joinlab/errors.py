"""Error taxonomy shared by every module, and the base of its value classes.

Three input failure kinds are distinguished so callers (and the CLI
exit-code mapping) can react uniformly: malformed data, violated
mathematical preconditions, and configured size caps.  A fourth kind marks
a failed internal cross-check, a fault of the package rather than of its
input.

Every input error names the input that caused it: a field path such as
``spaces.<name>.weights[0]`` or ``<file>.nonzero[3]``, or a command line
flag.  ``naming`` is the one place that adds that name to a message.  A
library check made through ``check`` or ``require_int`` stores ``param``,
the input at fault, on its error, so ``naming`` can map it to the flag
that supplied it and the CLI repeats no library check.

``Value`` is the base of the immutable value classes (spaces, maps,
measures, results); it lives here because every module imports this one.
"""


class JoinlabError(Exception):
    """Base class for all package errors; ``check`` sets ``param``."""

    param = None


class InvalidInputError(JoinlabError):
    """Malformed or ill-typed input: bad weights, non-bijections, floats."""


class PreconditionError(JoinlabError):
    """Structurally valid input that violates a documented precondition."""


class ResourceLimitError(JoinlabError):
    """A configured size cap would be exceeded."""


class JoinlabInternalError(JoinlabError):
    """An internal cross-check failed; indicates a solver bug."""


_INPUT_ERRORS = (InvalidInputError, PreconditionError, ResourceLimitError)


def check(ok, param: str, message: str) -> None:
    """Raise ``InvalidInputError(message)`` with ``param``, the name of the
    input at fault, stored on it, unless ``ok``."""
    if not ok:
        exc = InvalidInputError(message)
        exc.param = param
        raise exc


_INT_RANGES = {None: "an int", 0: "a nonnegative int", 1: "a positive int"}


def require_int(value, param: str, low: int | None = None, high: int | None = None) -> None:
    """``check`` that ``value`` is an int, never a bool, in ``low..high``: "{param}
    must be an int / a nonnegative int / a positive int / an int in low..high"."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or low is not None and value < low or high is not None and value > high):
        what = _INT_RANGES[low] if high is None else f"an int in {low}..{high}"
        check(False, param, f"{param} must be {what}, got {value!r}")


class naming:
    """Context manager that re-raises an input error from inside it as the
    same kind, with the message ``field: message``.  ``field`` is a name,
    or a mapping from the ``param`` an error carries to a name, whose key
    ``None`` covers every other input error; an error that the mapping
    does not name passes unchanged, as do internal errors.  A class rather
    than a generator, as it wraps every entry of the decode loops."""

    __slots__ = ("field",)

    def __init__(self, field: str | dict):
        self.field = field

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is None or not issubclass(kind, _INPUT_ERRORS):
            return False
        field = self.field
        if not isinstance(field, str):
            field = field.get(exc.param, field.get(None))
            if field is None:
                return False
        raise kind(f"{field}: {exc}") from exc


class Value:
    """Immutable value with ``__slots__``.  ``_fields`` lists, in order, the
    fields that ``==``, ``hash`` and ``repr`` read: instances are equal when
    they are of the same class and those fields are, and ``hash`` is the
    hash of the tuple of those fields.  ``_fields`` are also the
    constructor's parameters, so a copy or an unpickled instance is
    rebuilt, and validated, by the constructor.  The result records
    (``LpSolution``, ``LpOutcome``, ``TrivialityCertificate``,
    ``_Reduction``, ``SweepResult``, ``Config``) check nothing and take
    the constructor defined here; a class that validates or converts its
    fields defines its own ``__init__`` and stores them through
    ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        """Store positional, then keyword, arguments as ``_fields`` in order;
        ``TypeError`` if a field is missing, given twice or unknown."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        rest = fields[len(args):]
        unknown = sorted(kwargs.keys() - rest)
        if unknown:
            raise TypeError(f"{name} got unknown or repeated fields {', '.join(unknown)}")
        missing = [f for f in rest if f not in kwargs]
        if missing:
            raise TypeError(f"{name} is missing the fields {', '.join(missing)}")
        for field, value in zip(fields, (*args, *map(kwargs.__getitem__, rest))):
            object.__setattr__(self, field, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()
