"""Error taxonomy shared across the package.

The CLI maps these onto exit statuses: InputError and its subclasses
(including WindowError and CapabilityError) exit 2, as does an OSError
while writing outputs, which it reports as an InputError; BudgetError,
NumericError (among them any result that overflows float64: an average or
its L1 norm, a contraction sum, a norm or a running sum of the divergence
search), Python's MemoryError and numpy's oversize-array ValueError exit 3,
ConsistencyError exits 4. The package raises no warnings of its own.
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
    """A result overflows float64, or a procedure fails to converge."""


class ConsistencyError(ErgosymError):
    """Two independent pipelines disagreed beyond tolerance."""
