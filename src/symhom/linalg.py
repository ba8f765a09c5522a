"""Sparse exact linear algebra over the rationals.

A scalar is an int or a fractions.Fraction, never a float.  Almost every
matrix in the package has integer entries, and int arithmetic is several
times faster than Fraction arithmetic, so a matrix holds an integral
entry as an int (exact), and the elimination takes a factor as an int
whenever the division comes out even (div).  A value computed from a
Fraction may stay a Fraction with denominator 1; it compares and hashes
equal to the int.  The arithmetic is exact either way, so no result
depends on which type holds a value.

Vectors are plain dictionaries key -> nonzero scalar, the only vector type
in the package (polynomials, bar and symmetric bar elements, Lie algebra
elements); add_term is the one "add, drop if zero" step on them.  A
SparseMatrix holds its rows, a list of such dicts col -> scalar, so
elimination and products read rows with no (row, col) keys.
SparseMatrix.from_images is the one way to fill a SparseMatrix: every
block of every complex in the package is the matrix of the images of a
source basis, written on a target basis.

eliminate is the one elimination of the package: exact Gaussian
elimination on sparse rows with a Markowitz-style pivot choice (sparsest
column, then sparsest row in it), which keeps fill-in tolerable on the
face-map matrices produced elsewhere in the package.  The sparsest column
comes off a heap of (count, column) entries, refreshed lazily, so
choosing a pivot does not rescan every active column.  Its pivots give
the rank (their number) and quotient normal forms (reduction by them,
QuotientSpace).

homology_by_blocks is the one homology loop of the package: given the
positions of a bigraded complex, its groups' bases and a block builder,
it builds and ranks each nonzero block once and checks d . d = 0 at
every position whose two blocks are nonzero.  It ranks d_in: C_in ->
C_mid without the rows at the pivot columns of d_out: C_mid -> C_out
(clearing, de Silva-Morozov-Vejdemo-Johansson 2011).  Those columns are
independent, so deleting their coordinates is injective on ker d_out,
which holds im d_in when d_out . d_in = 0: the rank is unchanged.  So a
block is cleared only where its product with d_out is checked, and a
block ranked before the one below it is ranked whole.
"""

from collections import Counter
from heapq import heappop, heappush

from .rationals import QQ

__all__ = [
    "SparseMatrix",
    "add_term",
    "exact",
    "exact_vector",
    "div",
    "QuotientSpace",
    "CompositionNonZeroError",
    "eliminate",
    "rank",
    "homology_dim",
    "homology_by_blocks",
]


class CompositionNonZeroError(Exception):
    """Raised when two maps that should compose to zero do not."""


def exact(x):
    """x as an exact scalar: an int when it is integral, else a Fraction.

    Accepts ints, Fractions and anything QQ accepts ("p/q" and decimal
    strings, floats, which convert exactly).  A bool, a zero denominator
    ("1/0") or an infinite float is a ValueError, as any bad scalar is."""
    if type(x) is not int:
        if type(x) is bool:
            raise ValueError("scalar %r is not a rational number" % (x,))
        try:
            x = QQ(x)
        except (ZeroDivisionError, OverflowError):
            raise ValueError("scalar %r is not a rational number"
                             % (x,)) from None
        if x.denominator == 1:
            return x.numerator
    return x


def exact_vector(vec):
    """vec with every scalar made exact (see exact) and zeros dropped."""
    out = {}
    for k, c in vec.items():
        c = exact(c)
        if c:
            out[k] = c
    return out


def div(a, p):
    """a / p exactly: a // p when both are ints and p divides a, else a
    Fraction, given back as an int when it is integral.  Two ints are
    never divided with /, which would give a float."""
    if type(a) is int and type(p) is int:
        if not a % p:
            return a // p
        return QQ(a, p)
    q = a / p
    return q.numerator if q.denominator == 1 else q


def add_term(acc, key, c):
    """acc[key] += c in a sparse vector, dropping the key when it cancels.

    The type of c is kept for a new key, so int counts stay ints.  The
    inner loops of eliminate, QuotientSpace.project, SparseMatrix.matmul
    and CommDGAlgebra.d spell this step out inline: a call per term there
    is a measurable share of their time.
    """
    if key in acc:
        s = acc[key] + c
        if s:
            acc[key] = s
        else:
            del acc[key]
    elif c:
        acc[key] = c


class SparseMatrix:
    """An immutable-by-convention sparse matrix over QQ.

    data holds its rows, each a dict col -> exact scalar (see exact);
    zeros are never stored.  entries is a (row, col) -> scalar copy.
    SparseMatrix(rows, cols) is the zero matrix, and from_images the one
    way to fill one.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols
        self.data = [{} for _ in range(rows)]

    @property
    def entries(self):
        return {(i, j): v for i, row in enumerate(self.data)
                for j, v in row.items()}

    @classmethod
    def from_images(cls, src, tgt, image):
        """The matrix whose column j is image(src[j]) on the basis tgt.

        image(x) is a sparse vector keyed by elements of tgt; a key
        outside tgt raises KeyError, since the map does not land in the
        target block.  The entries are written into their rows in place,
        each made exact (an int passes as it is), with no bounds check:
        rows and columns come from the bases.
        """
        M = cls(len(tgt), len(src))
        row = dict(zip(tgt, M.data))
        for col, x in enumerate(src):
            for m, v in image(x).items():
                v = v if type(v) is int else exact(v)
                if v:
                    row[m][col] = v
        return M

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        M = SparseMatrix(self.rows, other.cols)
        for out, row in zip(M.data, self.data):
            for k, u in row.items():
                for j, v in other.data[k].items():
                    w = out.get(j, 0) + u * v
                    if w:
                        out[j] = w
                    elif j in out:
                        del out[j]
            for j, w in out.items():
                if type(w) is not int:
                    out[j] = exact(w)
        return M

    def is_zero(self):
        return not any(self.data)


def eliminate(rows):
    """Markowitz elimination of a list of sparse rows (dicts col -> scalar).

    Destroys its input and returns the pivots [(col, row)] in elimination
    order; each pivot row is zero in the columns of the pivots before it,
    and the pivot rows span the row space of the input.  Pivot choice:
    the column hit by the fewest active rows, then the shortest row in
    that column; ties go to the lower index.  The heap holds, for every
    active column, an entry with its current count: counts change only in
    the columns of the pivot row, which get a fresh entry when the pivot
    retires.  Entries for retired columns or old counts are skipped when
    popped, so the first current entry is the minimum (count, column).
    """
    rows = [r for r in rows if r]
    col_rows = {}
    for rid, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(rid)
    heap = [(len(s), c) for c, s in col_rows.items()]
    heap.sort()
    pivots = []
    while col_rows:
        count, c = heappop(heap)
        rids = col_rows.get(c)
        if rids is None or count != len(rids):
            continue  # stale entry
        piv = min(rids, key=lambda rid: (len(rows[rid]), rid))
        piv_row = rows[piv]
        piv_val = piv_row[c]
        for rid in list(rids):
            if rid == piv:
                continue
            row = rows[rid]
            factor = div(row[c], piv_val)
            for cc, vv in piv_row.items():
                w = row.get(cc, 0) - factor * vv
                if w:
                    if cc not in row:
                        col_rows[cc].add(rid)
                    row[cc] = w
                elif cc in row:
                    del row[cc]
                    col_rows[cc].discard(rid)
        # retire the pivot row and column
        for cc in piv_row:
            s = col_rows[cc]
            s.discard(piv)
            if s:
                heappush(heap, (len(s), cc))
            else:
                del col_rows[cc]
        rows[piv] = {}
        pivots.append((c, piv_row))
    return pivots


def rank(M, cleared=(), pivots=None):
    """Rank of M over the rationals, leaving out the rows in cleared
    (homology_by_blocks passes rows whose removal keeps the rank); the
    pivot columns are added to the set pivots when one is given."""
    found = eliminate([dict(row) for i, row in enumerate(M.data)
                       if i not in cleared])
    if pivots is not None:
        pivots.update(c for c, _ in found)
    return len(found)


class QuotientSpace:
    """k^ambient_dim modulo the span of a list of sparse relation vectors.

    Coordinates are arbitrary hashable labels.  The quotient basis is the
    set of non-pivot labels of the eliminated relations; a vector projects
    to its unique representative supported on them.
    """

    def __init__(self, labels, relations):
        self.labels = list(labels)
        order = {lab: i for i, lab in enumerate(self.labels)}
        rows = [{order[lab]: exact(v) for lab, v in rel.items() if v}
                for rel in relations]
        self._pivots = eliminate(rows)
        pivot_set = {pc for pc, _ in self._pivots}
        self.basis = [lab for i, lab in enumerate(self.labels)
                      if i not in pivot_set]
        self._order = order

    @property
    def dim(self):
        return len(self.basis)

    def project(self, vec):
        """Coordinates of a vector's class on the quotient basis."""
        v = {self._order[lab]: exact(c) for lab, c in vec.items() if c}
        for pc, row in self._pivots:
            if pc in v:
                factor = div(v[pc], row[pc])
                for cc, vv in row.items():
                    w = v.get(cc, 0) - factor * vv
                    if w:
                        v[cc] = w
                    elif cc in v:
                        del v[cc]
        return {self.labels[i]: exact(c) for i, c in v.items()}


def homology_dim(d_out, d_in):
    """dim ker(d_out) - rank(d_in) for a block C_in -> C_mid -> C_out.

    d_out: C_mid -> C_out, d_in: C_in -> C_mid.  Raises ValueError when
    the middle dimensions disagree, and CompositionNonZeroError when
    d_out . d_in != 0.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("middle dimensions disagree: %d vs %d"
                         % (d_out.cols, d_in.rows))
    blocks = (d_out, d_in)
    groups = {(-1, 0): range(d_out.rows), (0, 0): range(d_out.cols),
              (1, 0): range(d_in.cols)}
    return homology_by_blocks([(0, 0)], lambda h, w: blocks[h], 0,
                              groups)[(0, 0)]


def homology_by_blocks(positions, block, shift, bases):
    """{(h, w): dim H_{h,w}} of a bigraded complex at the given positions.

    bases maps (h, w) to the basis of C_{h,w} (none: a zero group), and
    block(h, w) is the matrix of d: C_{h,w} -> C_{h-1,w+shift} on them.
    Per call, a block between two nonzero groups is built whole, checked
    against its bases' shape and ranked once, and dropped when no later
    position needs it; d . d = 0 is checked at every position whose two
    blocks are nonzero.  No other block is built: it is zero, since every
    route's d is graded where its input enters (freealg.grading_shifts
    checks hdeg - 1 and one weight shift, bar faces lower the level and
    keep the weight, CE is graded by construction) and each group holds
    every monomial of its bidegree.  A block first ranked where d_out
    below it is ranked too leaves out its rows at d_out's pivot columns
    (clearing, see above).  Raises ValueError when a block's shape is not
    len(target) x len(source), and CompositionNonZeroError when d . d != 0
    at a position or a dimension comes out negative.
    """
    pairs = [((h, w), (h + 1, w - shift)) for h, w in positions]
    uses = Counter((h, w) for pair in pairs for h, w in pair
                   if bases.get((h, w)) and bases.get((h - 1, w + shift)))
    blocks = {}
    pivots = {}
    ranks = {}
    out = {}
    for (h, w), pair in zip(positions, pairs):
        dim = len(bases.get((h, w), ()))
        built = [key for key in pair if key in uses]
        for key in built:
            if key not in ranks:
                M = blocks[key] = block(*key)
                tgt = bases[key[0] - 1, key[1] + shift]
                if (M.rows, M.cols) != (len(tgt), len(bases[key])):
                    raise ValueError("block %r has the wrong shape" % (key,))
                cleared = pivots.get(pair[0], ())  # d_out's, key = pair[1]
                ranks[key] = rank(M, cleared, pivots.setdefault(key, set()))
            dim -= ranks[key]
        if len(built) == 2 and \
                not blocks[pair[0]].matmul(blocks[pair[1]]).is_zero():
            raise CompositionNonZeroError(
                "d_out . d_in != 0 at (%d, %d): not a complex" % (h, w))
        if dim < 0:
            raise CompositionNonZeroError(
                "negative homology dimension at (%d, %d)" % (h, w))
        out[(h, w)] = dim
        for key in built:
            uses[key] -= 1
            if not uses[key]:
                del blocks[key], pivots[key]
    return out
