"""The symmetric category Delta-S: normal forms, composition,
factorization, the symmetric bar action, and degree-0 coequalizers.

A morphism [n] -> [m] is plain data, like every vector in the package:
the tuple of its m+1 monomials, each a tuple over the variables {0..n}
in which every variable occurs exactly once.  morphism() checks that
normal form where a morphism enters from outside (parse_morphism calls
it); the constructors below build normal forms and return them
unchecked.  The source arity is arity(f), the target arity len(f).
Composition is substitution; the unique (permutation, monotone)
factorization is computed on demand.  An element of the symmetric bar
construction is a dict, word of basis indices -> scalar.
"""

from itertools import product

from .bar import DEFAULT_BUDGET, CapOverflowError
from .linalg import QuotientSpace, add_term

__all__ = [
    "ArityMismatchError", "morphism", "arity", "identity", "compose",
    "factorize", "transposition", "rotation", "face_embedding",
    "multiply_map", "parse_morphism", "format_morphism",
    "b_sym_action", "psi_sym",
    "hochschild_face",
    "abelianization_quotient", "hs0_coequalizer", "hc0_coequalizer",
]


class ArityMismatchError(ValueError):
    pass


def morphism(monomials):
    """The morphism with these monomials, as a tuple of tuples.  Raises
    ValueError unless there is at least one monomial and the variables
    are 0..n for some n >= 0, each occurring exactly once."""
    f = tuple(tuple(m) for m in monomials)
    if not f:
        raise ValueError("target arity must be at least 1")
    seen = sorted(v for m in f for v in m)
    if not seen:
        raise ValueError("source arity must be at least 1")
    if seen != list(range(len(seen))):
        raise ValueError("monomials must use each variable exactly once")
    return f


def arity(f):
    """The source arity n + 1 of f: [n] -> [m]."""
    return sum(len(m) for m in f)


def identity(n):
    return tuple((i,) for i in range(n + 1))


def transposition(n, i):
    """The adjacent transposition (i, i+1) as an automorphism of [n]."""
    if not 0 <= i < n:
        raise IndexError("transposition index out of range")
    mon = [(j,) for j in range(n + 1)]
    mon[i], mon[i + 1] = mon[i + 1], mon[i]
    return tuple(mon)


def rotation(n):
    """The cyclic rotation t: a_0 x ... x a_n -> a_n x a_0 x ... x a_{n-1}."""
    return ((n,),) + tuple((j,) for j in range(n))


def face_embedding(n, i):
    """The injective monotone map [n-1] -> [n] skipping slot i."""
    if not 0 <= i <= n:
        raise IndexError("face index out of range")
    mon = []
    for l in range(n + 1):
        if l < i:
            mon.append((l,))
        elif l == i:
            mon.append(())
        else:
            mon.append((l - 1,))
    return tuple(mon)


def multiply_map(n, i):
    """The monotone surjection [n] -> [n-1] merging slots i and i+1."""
    if not 0 <= i < n:
        raise IndexError("merge index out of range")
    mon = []
    for l in range(n):
        if l < i:
            mon.append((l,))
        elif l == i:
            mon.append((i, i + 1))
        else:
            mon.append((l + 1,))
    return tuple(mon)


def permutation_morphism(sigma):
    """The automorphism sending variable j to slot sigma[j]."""
    n1 = len(sigma)
    inv = [0] * n1
    for j, s in enumerate(sigma):
        inv[s] = j
    return tuple((inv[l],) for l in range(n1))


def compose(g, f):
    """g o f: substitute f's monomials for g's variables."""
    if len(f) != arity(g):
        raise ArityMismatchError(
            "cannot compose: f targets arity %d, g expects %d"
            % (len(f), arity(g)))
    mon = []
    for gm in g:
        word = []
        for var in gm:
            word.extend(f[var])
        mon.append(tuple(word))
    return tuple(mon)


def factorize(f):
    """Unique factorization f = g o sigma, g monotone in Delta.

    Returns (sigma, g): sigma[j] is the position of variable j in the
    concatenation of f's monomials; g has the same fiber sizes with
    consecutive variables.
    """
    sigma = [0] * arity(f)
    pos = 0
    for m in f:
        for var in m:
            sigma[var] = pos
            pos += 1
    mon = []
    start = 0
    for m in f:
        mon.append(tuple(range(start, start + len(m))))
        start += len(m)
    return tuple(sigma), tuple(mon)


# textual syntax ---------------------------------------------------------

def format_morphism(f):
    """Render e.g. (x1 x0)|(x2); an empty monomial prints as 1."""
    bits = []
    for m in f:
        if m:
            bits.append("(%s)" % " ".join("x%d" % v for v in m))
        else:
            bits.append("1")
    return "|".join(bits)


def parse_morphism(text):
    """Parse the textual syntax produced by format_morphism, and check the
    normal form (morphism)."""
    mon = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if chunk in ("1", "()"):
            mon.append(())
            continue
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise ValueError("bad monomial %r" % chunk)
        inner = chunk[1:-1].split()
        word = []
        for tok in inner:
            if not tok.startswith("x"):
                raise ValueError("bad variable %r" % tok)
            word.append(int(tok[1:]))
        mon.append(tuple(word))
    return morphism(mon)


# the symmetric bar construction ----------------------------------------

def b_sym_action(A, f, v):
    """Apply a Delta-S morphism to an element v of A^{(n+1)} in the
    symmetric bar construction over A: a dict word of basis indices ->
    scalar, every word of length arity(f).  Returns the image, a dict of
    words of length len(f).

    Each output slot is the ordered product in A of the inputs named by
    the corresponding monomial; an empty monomial contributes the unit.
    """
    out = {}
    source = arity(f)
    for word, c in v.items():
        if len(word) != source:
            raise ArityMismatchError(
                "element word of arity %d, morphism expects %d"
                % (len(word), source))
        # per-slot products, each a sparse vector in A
        slots = [A.multiply_word([word[var] for var in m]) for m in f]
        # distribute over the tensor factors
        partial = [((), c)]
        for slot in slots:
            partial = [(w + (i,), cc * a)
                       for w, cc in partial for i, a in slot.items()]
        for w, cc in partial:
            add_term(out, w, cc)
    return out


# the functor to free groups --------------------------------------------

def psi_sym(f):
    """The contravariant assignment <m+1> -> <n+1> to free groups: the
    homomorphism X_j -> (j-th monomial of f), as the tuple of its image
    words.  A positive-word homomorphism carries exactly the data of the
    normal form, so this is f itself.  It stays a function because the
    CLI op deltaS psi calls it and perfbench/spans.py wraps it by name."""
    return f


# the cyclic operators behind hc0 ----------------------------------------

def hochschild_face(n, i):
    """Face d_i of the cyclic bar construction, as a Delta-S morphism.

    Inner faces merge slots i, i+1; the last face wraps around:
    a_0 x ... x a_n -> (a_n a_0) x a_1 x ... x a_{n-1}.
    """
    if not 0 <= i <= n:
        raise IndexError("face index out of range")
    if i < n:
        return multiply_map(n, i)
    return ((n, 0),) + tuple((j,) for j in range(1, n))


# degree-0 coequalizers --------------------------------------------------

def abelianization_quotient(A):
    """A modulo the span of w - w^sigma over products of at most three
    basis elements: the degree-0 symmetric quotient (A_ab as a vector
    space).
    """
    labels = list(range(A.dim))
    relations = []
    for length in (2, 3):
        for w in product(range(A.dim), repeat=length):
            base = A.multiply_word(w)
            for i in range(len(w) - 1):
                sw = list(w)
                sw[i], sw[i + 1] = sw[i + 1], sw[i]
                other = A.multiply_word(sw)
                rel = dict(base)
                for k, cc in other.items():
                    add_term(rel, k, -cc)
                if rel:
                    relations.append(rel)
    return QuotientSpace(labels, relations)


def _coequalizer_generators(arity_cap, cyclic):
    """Generating morphisms with both endpoints at arity <= arity_cap.

    Yields pairs (n, f) with f a morphism out of [n].  For the symmetric
    coequalizer: adjacent transpositions, merges, unit insertions.  For
    the cyclic one: rotations, Hochschild faces, and the degeneracies
    s_i (the unit inserted after slot i, face_embedding(n + 1, i + 1)).
    """
    ncap = arity_cap - 1
    for n in range(ncap + 1):
        if cyclic:
            if n >= 1:
                yield n, rotation(n)
            for i in range(n + 1):
                if n >= 1:
                    yield n, hochschild_face(n, i)
            if n + 1 <= ncap:
                for i in range(n + 1):
                    yield n, face_embedding(n + 1, i + 1)
        else:
            for i in range(n):
                yield n, transposition(n, i)
            for i in range(n):
                yield n, multiply_map(n, i)
            if n + 1 <= ncap:
                for i in range(n + 2):
                    yield n, face_embedding(n + 1, i)


def _coequalizer_space(A, arity_cap, cyclic):
    """The truncated coequalizer as a QuotientSpace: one relation per
    generating morphism out of [n] and word of length n + 1.  Raises
    CapOverflowError before building anything when the relations would
    outnumber bar.DEFAULT_BUDGET."""
    generators = list(_coequalizer_generators(arity_cap, cyclic))
    size = sum(A.dim ** (n + 1) for n, _ in generators)
    if size > DEFAULT_BUDGET:
        raise CapOverflowError(
            "coequalizer at arity cap %d builds up to %d relations, over the "
            "budget %d" % (arity_cap, size, DEFAULT_BUDGET))
    ncap = arity_cap - 1
    labels = [(n, w) for n in range(ncap + 1)
              for w in product(range(A.dim), repeat=n + 1)]
    relations = []
    for n, f in generators:
        m = len(f) - 1
        for w in product(range(A.dim), repeat=n + 1):
            rel = {(n, w): 1}
            for iw, c in b_sym_action(A, f, {w: 1}).items():
                add_term(rel, (m, iw), -c)
            if rel:
                relations.append(rel)
    return QuotientSpace(labels, relations)


def hs0_coequalizer(A, arity_cap):
    """Truncated coequalizer over the symmetric category: dim HS_0(A)."""
    if arity_cap < 1:
        raise ValueError("arity_cap must be >= 1")
    return _coequalizer_space(A, arity_cap, cyclic=False).dim


def hc0_coequalizer(A, arity_cap):
    """Truncated coequalizer over the cyclic category: dim A/[A, A]."""
    if arity_cap < 1:
        raise ValueError("arity_cap must be >= 1")
    return _coequalizer_space(A, arity_cap, cyclic=True).dim
