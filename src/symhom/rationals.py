"""Exact rational scalars.

Every number in this package is an exact rational, never a float: an int
or a fractions.Fraction in lowest terms with a positive denominator.
FinDimAlgebra, FreeDGAlgebra, CommDGAlgebra, DGLie and SparseMatrix make
their scalars exact once, in the constructor: an integral value is held
as an int (linalg.exact and linalg.div keep it so), since int arithmetic
is several times faster.
QQ names the Fraction type.  The JSON formats write a scalar as its str,
"p" for an int and "p/q" for a Fraction, and qq reads that form back.
"""

from fractions import Fraction as QQ

ZERO = QQ(0)


def qq(x):
    """Coerce ints, "p/q" strings, or rationals to the scalar type."""
    if isinstance(x, str):
        if "/" in x:
            num, den = x.split("/")
            return QQ(int(num), int(den))
        return QQ(int(x))
    return QQ(x)
