"""Exception hierarchy and the one size budget shared by all modules."""

# These count their entries against one budget: |G| listed elements, a
# |G| x |G| table, the pairs of an exhaustive scan or of a law's presentation, the
# |G| x dim entries that bound the pair checks' reads, a coset table, n1 x n2 index
# pairs, one operator row of dim entries, a dim x dim dense rendering.  2^18 = 512^2.
ENTRY_BUDGET = 2 ** 18
MAX_DIM_DEFAULT = 4096      # the default of the CLI's --max-dim; no library code reads it


def check_budget(what: str, size: int):
    """Raise ``ResourceLimitError`` unless ``size`` entries fit ``ENTRY_BUDGET``."""
    if size > ENTRY_BUDGET:
        raise ResourceLimitError(what, size, "ENTRY_BUDGET", ENTRY_BUDGET)


def check_int64(what: str, bound: int):
    """Raise ``InputError`` unless ``bound``, the largest magnitude that ``what`` can
    reach in an int64 array, is below 2^63."""
    if bound >= 2 ** 63:
        raise InputError(f"{what} can reach {bound}, beyond int64 arrays")


class WeylkitError(Exception):
    """Base class for all package errors."""


class InputError(WeylkitError):
    """Malformed or mismatched input (wrong group, bad scenario, bad matrix)."""


class PreconditionError(WeylkitError):
    """A documented operation precondition was violated by the caller."""


class UnsupportedOperationError(WeylkitError):
    """The operation is undefined for this input (e.g. halving in a non-2-regular group)."""


class DefectError(WeylkitError):
    """An internal guarantee failed; carries a witness.  Always a bug, never a data condition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(WeylkitError):
    """A size budget was exceeded: names the budget, its limit and the size that tripped it."""

    def __init__(self, what: str, size: int, budget: str, limit: int):
        super().__init__(f"{what} {size} exceeds {budget} = {limit}")
        self.budget, self.limit, self.size = budget, limit, size
