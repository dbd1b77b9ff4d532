"""Error taxonomy shared across the package.

The CLI maps these onto exit statuses: InputError and its subclasses
(including WindowError and CapabilityError) exit 2, BudgetError,
NumericError, Python's MemoryError and numpy's oversize-array ValueError
exit 3, ConsistencyError exits 4.
"""


class ErgosymError(Exception):
    """Base class for all package errors."""


class InputError(ErgosymError):
    """Invalid argument, domain violation, or incompatible spaces."""


class WindowError(InputError):
    """A truncation window is too short for the requested computation."""


class CapabilityError(InputError):
    """The requested result was not retained (e.g. probe-only report)."""


class BudgetError(ErgosymError):
    """An iteration or search budget was exhausted."""


class NumericError(ErgosymError):
    """A numeric procedure failed to converge (pathological input)."""


class ConsistencyError(ErgosymError):
    """Two independent pipelines disagreed beyond tolerance."""


class TruncationWarning(UserWarning):
    """A query ran past the truncation window; the answer is window-relative."""
