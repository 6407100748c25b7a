"""Exception types shared across the package.

Everything raised on bad mathematical input derives from WresolveError so
callers (and the CLI) can separate domain errors from programming errors.
"""


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
