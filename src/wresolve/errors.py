"""Exception types shared across the package, and the collector pause of
its long walks.

Everything raised on bad mathematical input derives from WresolveError so
callers (and the CLI) can separate domain errors from programming errors.
Every layer imports this module, so ``paused_gc``, the decorator that keeps
the cyclic garbage collector off while a walk builds its rows, lives here
too and costs no layer an import.
"""

import functools
import gc


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


class WresolveError(Exception):
    """Base class for all domain errors raised by this package."""


class NotTerminalForm(WresolveError):
    """Weight triple cannot be brought to the normal form (1, -1, b)."""


class InvalidSplit(WresolveError):
    """Blow-up weights violate the split admissibility constraints."""


class SearchLimitExceeded(WresolveError):
    """Resolution search walked past the configured step ceiling."""


class InvalidParameter(WresolveError):
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
