"""Exception types shared across the package, the collector pause of its
long walks, and the support and rational input checks.

Every domain error derives from WresolveError: a value outside the
domain of a record or walk (InvalidParameter, also a ValueError for
library callers), en case data outside the classification
(InvalidCaseData), a support wall crossed (ConstraintViolation), a trace
rule broken (RuleViolation), a blow-up split refused (InvalidSplit),
input that does not match the JSON schema (SchemaError, exit 1), and the
rest below.  Any other ValueError is a bug, and the CLI lets it through.

Every layer imports this module, so what several layers share lives here
too and costs no layer an import: ``paused_gc``, which keeps the cyclic
collector off while a walk builds its rows; ``_Record``, the first base
of every validating record; ``_support``, the check of the monomial
supports of the cA/r germs and both chain shapes; ``_int``, the check of
a lone int argument; and ``_rational``, the check of every rational
input.
"""

import functools
import gc
from fractions import Fraction


def paused_gc(walk):
    """Run ``walk`` with the process-wide cyclic garbage collector paused.

    The trace and chain walks build one tuple-subclass row per step or
    stage, and CPython leaves a tuple subclass tracked, so a long walk
    would set off young collections that promote its rows, and full
    collections that rescan every one of them.  The rows hold no reference
    cycles, so the pause loses nothing: whatever the walk frees goes by
    reference counting.  The walks only build immutable tuples, so no user
    code runs while the collector is off.

    The collector is turned off only if it was on when the walk started,
    and turned back on when the walk returns or raises; a caller that
    turned it off finds it off.  The one sharp edge: another thread that
    calls ``gc.disable()`` while a walk runs finds the collector on again
    when the walk ends.

    A plain function wrapper, not a context manager: the walks serve many
    small calls, such as one ``validate_trace`` per trace of a sweep.
    ``functools.wraps`` keeps the walk's name, docstring and module.
    """

    @functools.wraps(walk)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return walk(*args, **kwargs)
        gc.disable()
        try:
            return walk(*args, **kwargs)
        finally:
            gc.enable()

    return paused


class _Record:
    """The first base of every validating record: its ``_make``, and so
    namedtuple's ``_replace``, which calls it, build through the record's
    constructor and its checks.  The fields go in by name, since
    DepthBound takes keywords only."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(**dict(zip(cls._fields, values)))


def _support(raw) -> frozenset:
    """raw as a frozenset of (i, j) exponent pairs: raw a collection of
    pairs, every exponent an int, a float or a bool refused, not truncated,
    and none negative.  The int check of every pair comes before the sign
    check of any."""
    try:
        pairs = [(i, j) for i, j in raw]
    except (TypeError, ValueError):  # raw or an entry of it unpacks badly
        raise InvalidParameter(f"support must be (i, j) pairs, not {raw!r}") from None
    for i, j in pairs:
        if type(i) is not int or type(j) is not int:
            raise InvalidParameter(f"support exponents must be ints, not ({i!r}, {j!r})")
    if any(i < 0 or j < 0 for i, j in pairs):
        raise InvalidParameter("support exponents must be nonnegative")
    return frozenset(pairs)


class WresolveError(Exception):
    """Base class of every domain error."""


class NotTerminalForm(WresolveError):
    """Weight triple cannot be brought to the normal form (1, -1, b)."""


class InvalidSplit(WresolveError):
    """Blow-up weights violate the split admissibility constraints."""


class SearchLimitExceeded(WresolveError):
    """Resolution search walked past the configured step ceiling."""


class InvalidParameter(WresolveError, ValueError):
    """Case parameter is out of range or produces a non-terminal basket."""


class InvalidCaseData(WresolveError):
    """Neighborhood case data violates the classification congruences."""


class ConstraintViolation(WresolveError):
    """Support constraint check failed.

    Carries the offending exponent pair and chain stage when known.
    """

    def __init__(self, message, i=None, j=None, k=None):
        super().__init__(message)
        self.i = i
        self.j = j
        self.k = k


class RuleViolation(WresolveError):
    """A factorization trace step breaks its depth rule."""

    def __init__(self, message, index=None, rule=None):
        super().__init__(message)
        self.index = index
        self.rule = rule


class SchemaError(WresolveError):
    """Input does not match the expected JSON schema."""


# the checks of one int or rational input, below InvalidParameter, the
# default error of _int


def _int(value, name, error=InvalidParameter):
    """value if an int, not a bool; else raise error."""
    if type(value) is not int:
        raise error(f"{name} must be an int, not {value!r}")
    return value


def _rational(value, name, error):
    """value as a Fraction if an int or a Fraction; else raise error."""
    if type(value) is not int and not isinstance(value, Fraction):
        raise error(f"{name} must be an int or a Fraction, not {value!r}")
    return Fraction(value)
