"""Conversions among moments and the free, Boolean and monotone cumulants.

Every conversion is an exact partition sum.  The six cumulant-to-cumulant
directions run over irreducible non-crossing partitions with a coefficient
depending only on the block count, the nesting-tree factorial, and the
omega weight of the nesting tree; moments are partition sums over all
non-crossing partitions (interval partitions only, in the Boolean case),
and the moment-to-cumulant directions invert those sums by recursion on
word length, which is always solvable because the one-block term is the
only one touching the full word.

One cached table per length holds each partition's blocks, block count,
forest factorial, interval flag and omega; one map gives each direction's
coefficient as a function of those, evaluated once per direction and
length; one loop sums the block products.

That loop runs on integers.  Each direction's order-n coefficients are
numerators over one common denominator, grouped by the sorted block sizes
of their partitions; the values read at each length are numerators over
that length's common denominator.  A word's sum is then an integer over a
denominator fixed per length, and each output word builds one Fraction.

Each table also lists its distinct blocks, at most 2^n - 1 of them.  A word
first reads the value of each distinct block once into a small table keyed
by the block; every row's block product then looks its blocks up there, so
no subword is built or hashed per row.  The caches are thread-safe and all
functions are pure.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from . import partitions, trees
from .prelie import Functional, _numerators

KINDS = ("moment", "free", "boolean", "monotone")
CUMULANT_KINDS = ("free", "boolean", "monotone")


class CumulantFamily:
    """A functional tagged with the family it belongs to."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("CumulantFamily is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, CumulantFamily)
            and self.kind == other.kind
            and self.data == other.data
        )

    def __repr__(self):
        return f"CumulantFamily({self.kind!r}, {self.data!r})"

    def to_json(self):
        return {"kind": self.kind, "functional": self.data.to_json()}

    @classmethod
    def from_json(cls, obj):
        try:
            kind = obj["kind"]
            functional = obj["functional"]
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed envelope: {exc}") from None
        return cls(kind, Functional.from_json(functional))


@lru_cache(maxsize=None)
def _nc_terms(n):
    # one row per partition of [n], in enumerate_nc order: 1-based blocks,
    # block count, forest factorial of the nesting forest, interval flag,
    # and omega of the nesting tree (None unless irreducible).  The factorial
    # is the product of the nesting-subtree sizes, taken straight off the
    # parent array; children follow their parents in canonical block order,
    # so one reverse sweep accumulates the sizes.
    rows = []
    for p in partitions.enumerate_nc(n):
        blocks = p.blocks
        parents = partitions._parents(p)
        sizes = [1] * len(parents)
        for j in range(len(parents) - 1, -1, -1):
            if parents[j] is not None:
                sizes[parents[j]] += sizes[j]
        ffact = 1
        for s in sizes:
            ffact *= s
        interval = all(b[-1] - b[0] == len(b) - 1 for b in blocks)
        om = None
        if p.is_irreducible():
            om = trees.omega(partitions.nesting_forest(p).trees[0])
        rows.append((blocks, len(blocks), ffact, interval, om))
    return tuple(rows)


# The coefficient of a partition in each closed sum, from its block count,
# forest factorial, interval flag and omega.  The six cumulant-to-cumulant
# sums run over irreducible partitions only; the sums into moments run over
# all of them.
_COEFF = {
    ("free", "boolean"): lambda nb, ff, iv, om: 1,
    ("boolean", "free"): lambda nb, ff, iv, om: (-1) ** (nb - 1),
    ("monotone", "free"): lambda nb, ff, iv, om: Fraction((-1) ** (nb - 1), ff),
    ("monotone", "boolean"): lambda nb, ff, iv, om: Fraction(1, ff),
    ("free", "monotone"): lambda nb, ff, iv, om: (-1) ** (nb - 1) * om,
    ("boolean", "monotone"): lambda nb, ff, iv, om: om,
    ("free", "moment"): lambda nb, ff, iv, om: 1,
    ("boolean", "moment"): lambda nb, ff, iv, om: 1 if iv else 0,
    ("monotone", "moment"): lambda nb, ff, iv, om: Fraction(1, ff),
}


def _rows(direction, n):
    # (blocks, coefficient) for every partition in the order-n sum of
    # `direction`; rows with equal inputs share one Fraction.  The key holds
    # omega as its numerator and denominator, so no Fraction is hashed.
    coeff = _COEFF[direction]
    irreducible_only = direction[1] != "moment"
    shared = {}
    for row in _nc_terms(n):
        blocks, nb, ff, iv, om = row
        if om is None:
            if irreducible_only:
                continue
            key = (nb, ff, iv)
        else:
            key = (nb, ff, iv, om.numerator, om.denominator)
        c = shared.get(key)
        if c is None:
            c = shared[key] = Fraction(coeff(nb, ff, iv, om))
        yield blocks, c


@lru_cache(maxsize=None)
def _terms(direction, n):
    # the rows with a nonzero coefficient, once per direction and order, as
    # (den, shapes, distinct): den is the common denominator of the
    # coefficients, each shape (the sorted block sizes of a row) holds its
    # rows as a tuple of blocks and a parallel tuple of integer numerators
    # over den, and distinct holds every block of those rows once.  Rows
    # with equal coefficients share one numerator.
    groups = {}
    distinct = set()
    for blocks, c in _rows(direction, n):
        if c:
            distinct.update(blocks)
            shape = tuple(sorted(map(len, blocks)))
            group = groups.get(shape)
            if group is None:
                group = groups[shape] = ([], [])
            group[0].append(blocks)
            group[1].append(c)
    # `_rows` shares one Fraction per distinct coefficient, so identity
    # finds the distinct ones without hashing a Fraction per row
    coeffs = {id(c): c for _, cs in groups.values() for c in cs}
    den = lcm(*(c.denominator for c in coeffs.values()))
    nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
    shapes = tuple(
        (shape, tuple(blocks), tuple(nums[id(c)] for c in cs))
        for shape, (blocks, cs) in groups.items()
    )
    return den, shapes, tuple(distinct)


def _block_product(vals, blocks, start):
    product = start
    for b in blocks:
        v = vals[b]
        if not v:
            return None
        product *= v
    return product


def _partition_sum(src, direction, invert=False):
    # out(w) = sum over the order-|w| rows of coefficient * prod src(block).
    # With invert, solve src = that sum of out for out instead: the one-block
    # row has coefficient 1 in every direction into moments and is the only
    # row reading the full word, so out(w) is src(w) minus the other rows,
    # which read only shorter words, solved already.  out(w) reads as 0 while
    # they are summed, so the one-block row drops out as a zero product.
    #
    # The sum runs on integers.  The values read at length k (the input, or
    # the outputs solved so far) are numerators over dens[k]; a row of shape
    # (k1, k2, ...) is then a numerator over den * dens[k1] * dens[k2] * ...,
    # so each shape's integer sum is brought to the lcm `big` of those
    # products by one factor, and each word builds one Fraction.
    #
    # Each word reads the value of every distinct block of the table once,
    # into `vals` keyed by the block; the rows then look their blocks up
    # there, so a subword is built and hashed once per distinct block, not
    # once per block of every row.
    st = src._table
    out = {}
    num = {}
    dens = [1]
    for m in range(1, src.max_order + 1):
        words = list(src.words_of_length(m))
        if invert:
            dens.append(1)
            num.update(dict.fromkeys(words, 0))
        else:
            dens.append(_numerators(st, words, num))
        den, shapes, distinct = _terms(direction, m)
        products = [prod(dens[k] for k in shape) for shape, _, _ in shapes]
        big = lcm(*products)
        shapes = [
            (all_blocks, nums, big // p)
            for (_, all_blocks, nums), p in zip(shapes, products)
        ]
        out_den = den * big
        for w in words:
            padded = (None,) + w  # a dummy letter at 0: 1-based blocks index it
            vals = {b: num[tuple([padded[i] for i in b])] for b in distinct}
            total = 0
            for all_blocks, nums, factor in shapes:
                part = 0
                for blocks, c in zip(all_blocks, nums):
                    term = _block_product(vals, blocks, c)
                    if term is not None:
                        part += term
                total += part * factor
            if invert:
                v = st[w]
                out[w] = Fraction(
                    v.numerator * out_den - total * v.denominator, v.denominator * out_den
                )
            else:
                out[w] = Fraction(total, out_den)
        if invert:
            dens[m] = _numerators(out, words, num)
    return Functional._from_table(src.alphabet, src.max_order, out)


def boolean_from_free(kappa):
    """Boolean cumulants from free ones: the plain sum over irreducible
    non-crossing partitions of the block products."""
    return _partition_sum(kappa, ("free", "boolean"))


def free_from_boolean(beta):
    """Free cumulants from Boolean ones: signed by (-1)^(blocks-1)."""
    return _partition_sum(beta, ("boolean", "free"))


def free_from_monotone(rho):
    """Free cumulants from monotone ones: signed and divided by the
    nesting-tree factorial."""
    return _partition_sum(rho, ("monotone", "free"))


def boolean_from_monotone(rho):
    """Boolean cumulants from monotone ones: divided by the nesting-tree
    factorial, all signs positive."""
    return _partition_sum(rho, ("monotone", "boolean"))


def monotone_from_free(kappa):
    """Monotone cumulants from free ones: weighted by the omega coefficient
    of the nesting tree, signed by (-1)^(blocks-1).

    Agrees word-by-word with ``prelie.magnus``.
    """
    return _partition_sum(kappa, ("free", "monotone"))


def monotone_from_boolean(beta):
    """Monotone cumulants from Boolean ones: weighted by the omega
    coefficient, all signs positive.

    This sign-free sum follows from the free-cumulant formula by flipping
    the sign of the input and the output; it equals the negated fixed-point
    expansion of the negated input, which the test suite checks directly.
    """
    return _partition_sum(beta, ("boolean", "monotone"))


def _require_cumulant_kind(kind):
    if kind not in CUMULANT_KINDS:
        raise ValueError(
            f"kind must be one of {CUMULANT_KINDS}, got {kind!r}"
        )


def moments_from(kind, c):
    """Moments from a cumulant family.

    Free: sum over all non-crossing partitions of the block products.
    Boolean: the same sum restricted to interval partitions.
    Monotone: the full sum weighted by 1 over the nesting-forest factorial.
    """
    _require_cumulant_kind(kind)
    return _partition_sum(c, (kind, "moment"))


def cumulants_from_moments(kind, phi):
    """The unique cumulant family of the given kind whose moments are ``phi``.

    Solved by recursion on word length: the one-block term is the only one
    involving the full word, and every other term only touches strictly
    shorter subwords already determined.
    """
    _require_cumulant_kind(kind)
    return _partition_sum(phi, (kind, "moment"), invert=True)


def convert(family, to_kind):
    """Convert a tagged family to any of the four kinds.

    Identity when the kinds coincide; otherwise the closed partition sum of
    the direction, or its inversion for moment-to-cumulant directions.
    """
    if to_kind not in KINDS:
        raise ValueError(f"unknown kind {to_kind!r}; expected one of {KINDS}")
    if family.kind == to_kind:
        return family
    if family.kind == "moment":
        data = cumulants_from_moments(to_kind, family.data)
    else:
        data = _partition_sum(family.data, (family.kind, to_kind))
    return CumulantFamily(to_kind, data)


def expansion_terms(from_kind, to_kind, n):
    """The order-n expansion of a conversion as (partition, coefficient) rows.

    Available for the six cumulant-to-cumulant directions and for the three
    cumulant-to-moment directions; the moment-to-cumulant inversions have no
    closed partition sum.
    """
    if from_kind == to_kind:
        raise ValueError("identity conversion has no expansion")
    if from_kind == "moment":
        raise ValueError(
            "moment-to-cumulant conversions are recursive inversions with no"
            " closed order-n expansion"
        )
    if (from_kind, to_kind) not in _COEFF:
        raise ValueError(
            f"unknown conversion {from_kind!r} -> {to_kind!r}; kinds are {KINDS}"
        )
    return [
        (partitions.NCPartition._wrap(blocks), c)
        for blocks, c in _rows((from_kind, to_kind), n)
    ]
