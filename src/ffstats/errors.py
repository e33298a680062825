"""Exception types shared across the package, and the one budget check."""

DEFAULT_BUDGET = 1 << 24


class FFStatsError(Exception):
    """Base class for every error this package raises deliberately."""


class NotPrimeError(FFStatsError, ValueError):
    """Field characteristic failed the primality check."""


class ReducibleModulusError(FFStatsError, ValueError):
    """Supplied extension modulus is not irreducible."""


class DegreeMismatchError(FFStatsError, ValueError):
    """Degree or coordinate length does not match the field context."""


class ZeroPolynomialError(FFStatsError, ValueError):
    """Operation requires a nonzero polynomial (or two not both zero)."""


class NotSquarefreeError(FFStatsError, ValueError):
    """Operation requires a squarefree polynomial."""


class MorsePreconditionError(FFStatsError, ValueError):
    """The Morse test needs the characteristic to exceed the degree."""


class PolynomialSyntaxError(FFStatsError, ValueError):
    """Malformed polynomial expression; ``position`` is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolynomialSyntaxError):
    """Expression names a variable outside t, A1..An."""


class NegativeExponentError(PolynomialSyntaxError):
    """Exponents must be nonnegative integer literals."""


class ArityMismatchError(FFStatsError, ValueError):
    """Point length does not match the number of parameters."""


class PartitionMismatchError(FFStatsError, ValueError):
    """Cycle-type parts do not sum to the declared degree."""


class ZeroFrequencyError(FFStatsError, ValueError):
    """Character-sum frequency vector must be nonzero."""


class InvalidGroupError(FFStatsError, ValueError):
    """Explicit group data is not a labelled subgroup."""


class NotAdmissibleError(FFStatsError, ValueError):
    """Parameter polynomial is unusable: no t-degree, or its discriminant
    in t vanishes identically (every specialization has repeated factors)."""


class BudgetExceededError(FFStatsError, RuntimeError):
    """Requested computation exceeds the configured enumeration budget."""


def charge(work: int, budget: int, what: str) -> None:
    """Refuse work past the budget before it is done: BudgetExceededError
    with the text ``f"{what}, budget is {budget}"``."""
    if work > budget:
        raise BudgetExceededError(f"{what}, budget is {budget}")
