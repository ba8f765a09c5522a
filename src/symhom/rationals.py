"""Exact rational scalars.

Every number in this package is an exact rational, never a float: an int
or a fractions.Fraction in lowest terms with a positive denominator.
FinDimAlgebra, FreeDGAlgebra, CommDGAlgebra, DGLie and SparseMatrix make
their scalars exact once, in the constructor: an integral value is held
as an int (linalg.exact and linalg.div keep it so), since int arithmetic
is several times faster.
QQ names the Fraction type.  The JSON formats write a scalar as its str,
"p" for an int and "p/q" for a Fraction.  A from_json reader hands the
raw JSON scalar to its constructor, whose linalg.exact reads any form QQ
takes: that str, a JSON number, or an exact decimal such as "1.5" (3/2).
"""

from fractions import Fraction as QQ

ZERO = QQ(0)
