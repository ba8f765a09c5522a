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
elements); add_term is the one "add, drop if zero" step on them.
Matrices are dictionaries (row, col) -> nonzero scalar, and
SparseMatrix.from_images is the one block builder: every block of every
complex in the package is the matrix of the images of a source basis,
written on a target basis.

eliminate is the one elimination of the package: exact Gaussian
elimination on sparse rows with a Markowitz-style pivot choice (sparsest
column, then sparsest row in it), which keeps fill-in tolerable on the
face-map matrices produced elsewhere in the package.  The sparsest column
comes off a heap of (count, column) entries, refreshed lazily, so
choosing a pivot does not rescan every active column.  Its pivots give
the rank (their number) and quotient normal forms (reduction by them,
QuotientSpace).

homology_by_blocks is the one homology loop of the package: given the
positions of a bigraded complex and a block builder, it builds and ranks
each block once and checks d . d = 0 at every position.
"""

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

    entries maps (row, col) -> exact scalar (see exact); zeros are never
    stored.
    """

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError("entry (%d, %d) out of bounds" % (i, j))
                v = exact(v)
                if v:
                    self.entries[(i, j)] = v

    @classmethod
    def from_images(cls, src, tgt, image):
        """The matrix whose column j is image(src[j]) on the basis tgt.

        image(x) is a sparse vector keyed by elements of tgt; a key
        outside tgt raises KeyError, since the map does not land in the
        target block.
        """
        row = {m: r for r, m in enumerate(tgt)}
        entries = {}
        for col, x in enumerate(src):
            for m, v in image(x).items():
                entries[(row[m], col)] = v
        return cls(len(tgt), len(src), entries)

    def matmul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = {}
        for (i, k), u in self.entries.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                w = out.get(key, 0) + u * v
                if w:
                    out[key] = w
                elif key in out:
                    del out[key]
        return SparseMatrix(self.rows, other.cols, out)

    def is_zero(self):
        return not self.entries

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)


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


def rank(M):
    """Rank of M over the rationals."""
    return len(eliminate(M.row_dicts()))


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

    d_out: C_mid -> C_out, d_in: C_in -> C_mid.  Raises
    CompositionNonZeroError when d_out . d_in != 0.
    """
    blocks = (d_out, d_in)
    return homology_by_blocks([(0, 0)], lambda h, w: blocks[h], 0)[(0, 0)]


def homology_by_blocks(positions, block, shift):
    """{(h, w): dim H_{h,w}} of a bigraded complex at the given positions.

    block(h, w) is the matrix of d from C_{h,w} to C_{h-1,w+shift}, so the
    homology at (h, w) needs block(h, w) and block(h+1, w-shift).  Within
    one call each block is built once and ranked once; a block is dropped
    as soon as no remaining position needs it.  Raises ValueError when two
    blocks do not compose, and CompositionNonZeroError when d . d != 0 at
    a position or a dimension comes out negative.
    """
    pairs = [((h, w), (h + 1, w - shift)) for h, w in positions]
    uses = {}
    for pair in pairs:
        for key in pair:
            uses[key] = uses.get(key, 0) + 1
    blocks = {}
    ranks = {}
    out = {}
    for (h, w), pair in zip(positions, pairs):
        for key in pair:
            if key not in ranks:
                blocks[key] = block(*key)
                ranks[key] = rank(blocks[key])
        d_out, d_in = (blocks[key] for key in pair)
        if d_out.cols != d_in.rows:
            raise ValueError("middle dimensions disagree: %d vs %d"
                             % (d_out.cols, d_in.rows))
        if not d_out.matmul(d_in).is_zero():
            raise CompositionNonZeroError(
                "d_out . d_in != 0 at (%d, %d): not a complex" % (h, w))
        dim = d_out.cols - ranks[pair[0]] - ranks[pair[1]]
        if dim < 0:
            raise CompositionNonZeroError(
                "negative homology dimension at (%d, %d)" % (h, w))
        out[(h, w)] = dim
        for key in pair:
            uses[key] -= 1
            if not uses[key]:
                del blocks[key]
    return out
