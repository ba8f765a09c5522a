"""The symmetric category Delta-S: normal forms, composition,
factorization, the symmetric bar action, and degree-0 coequalizers.

A morphism [n] -> [m] is plain data, like every vector in the package:
the tuple of its m+1 monomials, each a tuple over the variables {0..n}
in which every variable occurs exactly once.  morphism() checks that
normal form where a morphism enters from outside (parse_morphism calls
it); the constructors below build normal forms and return them
unchecked.  The source arity is arity(f), the target arity len(f).
Composition is substitution.  Every morphism factors uniquely as
f = g o sigma, g monotone and sigma a permutation (factorize); the
monotone factors are built by monotone(sizes).  An element of the
symmetric bar construction is a dict, word of basis indices -> scalar.

Degree-0 coequalizers work on orbits: the automorphisms of [n]
(S_{n+1} in Delta-S, the rotations in the cyclic category Delta-C) only
permute a word's letters, so orbits (_orbit) meet their relations.
Every other morphism is a chain of merges and unit insertions after an
automorphism; each merge is the first merge between two automorphisms,
and the first merge undoes a unit inserted in front.  So the first
merge's relations span those of every morphism.
"""

from itertools import (accumulate, combinations_with_replacement, count,
                       islice, product)
from math import comb

from .bar import DEFAULT_BUDGET, CapOverflowError
from .linalg import QuotientSpace, add_term

__all__ = [
    "ArityMismatchError", "morphism", "arity", "monotone", "compose",
    "factorize", "multiply_map", "parse_morphism",
    "format_morphism", "b_sym_action", "psi_sym", "abelianization_quotient",
    "hs0_coequalizer", "hc0_coequalizer",
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


def monotone(sizes):
    """The morphism of Delta whose j-th monomial holds the next sizes[j]
    variables in order: the monotone factor g of f = g o sigma."""
    var = count()
    return tuple(tuple(islice(var, s)) for s in sizes)


def multiply_map(n, i):
    """The monotone surjection [n] -> [n-1] merging slots i and i+1."""
    if not 0 <= i < n:
        raise IndexError("merge index out of range")
    return monotone([1] * i + [2] + [1] * (n - 1 - i))


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
    concatenation of f's monomials; g is monotone with f's fiber sizes.
    """
    sigma = [0] * arity(f)
    for pos, var in enumerate(v for m in f for v in m):
        sigma[var] = pos
    return tuple(sigma), monotone([len(m) for m in f])


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
            if tok[0] != "x" or not (tok[1:].isascii() and tok[1:].isdigit()):
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


def _orbit(word, cyclic):
    """A word's orbit representative under Aut([n]): its least rotation
    in Delta-C, its sorted word in Delta-S."""
    if cyclic:
        return min(word[i:] + word[:i] for i in range(len(word)))
    return tuple(sorted(word))


def _relation_counts(d, arity_cap, cyclic):
    """How many relations out of [n] _coequalizer_space builds, n >= 1, at
    dim A = d: d^2 pairs times the rests of length n - 1, words in
    Delta-C, multisets in Delta-S."""
    for n in range(1, arity_cap):
        yield d * d * (d ** (n - 1) if cyclic else comb(d + n - 2, n - 1))


def _coequalizer_space(A, arity_cap, cyclic):
    """The truncated coequalizer as a QuotientSpace on orbits of words
    of length <= arity_cap, with one relation [w] - [mu_0(w)] per
    w = (a, b) + rest: rest is a word in Delta-C and a multiset in
    Delta-S, whose permutations move neither orbit.  Raises
    CapOverflowError before building anything when the relations would
    outnumber bar.DEFAULT_BUDGET."""
    if arity_cap < 1:
        raise ValueError("arity_cap must be >= 1")
    counts = accumulate(_relation_counts(A.dim, arity_cap, cyclic))
    for arity, size in enumerate(counts, 2):
        if size > DEFAULT_BUDGET:
            raise CapOverflowError(
                "coequalizer at arity cap %d builds %d relations through "
                "arity %d, over the budget %d"
                % (arity_cap, size, arity, DEFAULT_BUDGET))
    letters = range(A.dim)

    def words(length):  # sorted words only in Delta-S
        if cyclic:
            return product(letters, repeat=length)
        return combinations_with_replacement(letters, length)

    labels = [(n, w) for n in range(arity_cap) for w in words(n + 1)
              if w == _orbit(w, cyclic)]
    # mu_0 multiplies the pair and keeps the rest
    merged = {pair: b_sym_action(A, multiply_map(1, 0), {pair: 1})
              for pair in product(letters, repeat=2)}
    relations = []
    for n in range(1, arity_cap):
        for pair, image in merged.items():
            for rest in words(n - 1):
                rel = {(n, _orbit(pair + rest, cyclic)): 1}
                for head, c in image.items():
                    add_term(rel, (n - 1, _orbit(head + rest, cyclic)), -c)
                relations.append(rel)
    return QuotientSpace(labels, relations)


def hs0_coequalizer(A, arity_cap):
    """Truncated coequalizer over the symmetric category: dim HS_0(A)."""
    return _coequalizer_space(A, arity_cap, cyclic=False).dim


def hc0_coequalizer(A, arity_cap):
    """Truncated coequalizer over the cyclic category: dim A/[A, A]."""
    return _coequalizer_space(A, arity_cap, cyclic=True).dim
