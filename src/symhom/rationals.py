"""Exact rational scalars.

Every public number in this package is a rational in lowest terms with a
positive denominator, a fractions.Fraction; QQ names the scalar type.
"""

from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def qq(x):
    """Coerce ints, "p/q" strings, or rationals to the scalar type."""
    if isinstance(x, str):
        if "/" in x:
            num, den = x.split("/")
            return QQ(int(num), int(den))
        return QQ(int(x))
    return QQ(x)


def qq_str(x):
    """Render a scalar as "p" or "p/q" (used by the JSON formats)."""
    x = QQ(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%s/%s" % (x.numerator, x.denominator)
