"""Exception types and the exact-value budget shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of an operation."""


class UnsupportedParametersError(DomainError):
    """The requested (d, k) admits no index-divisor-free prime."""


class ResourceBudgetError(RuntimeError):
    """A symbolic computation exceeded its configured size budget."""


# the most bits, numerators and denominators together, of the exact values
# that a computation without a budget argument may hold (valuation orbits,
# the belyi normal forms): about 80 MB of decimal report, above every such
# result whose integers all fit Python's default 4,300-digit int-str limit
EXACT_BIT_BUDGET = 2**28


def spend_bits(spent: int, x) -> int:
    """``spent`` plus the bits of the rational x; ResourceBudgetError once
    the total passes EXACT_BIT_BUDGET."""
    spent += x.numerator.bit_length() + x.denominator.bit_length()
    if spent > EXACT_BIT_BUDGET:
        raise ResourceBudgetError(f"exact values pass the {EXACT_BIT_BUDGET}-bit budget")
    return spent
