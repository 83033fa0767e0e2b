"""Exception hierarchy and the size budgets shared by all modules."""

# The size budgets.  Each bounds one kind of work, and exceeding it raises
# ResourceLimitError, which exits the CLI with code 2.
ENUMERATION_CAP = 200_000   # elements listed or scanned one at a time
TABLE_CAP = 512             # group order for |G| x |G| tables and exhaustive pair or triple scans
DIM_CAP = 4096              # carrier dimension of a model; the default of --max-dim


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
