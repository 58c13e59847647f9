"""Conversions among moments and the free, Boolean and monotone cumulants.

Every conversion is an exact partition sum.  The six cumulant-to-cumulant
directions run over irreducible non-crossing partitions with a coefficient
depending only on the block count, the nesting-tree factorial, and the
omega weight of the nesting tree; moments are partition sums over all
non-crossing partitions (interval partitions only, in the Boolean case),
and the moment-to-cumulant directions invert those sums by recursion on
word length, which is always solvable because the one-block term is the
only one touching the full word.

The coefficient inputs are functions of the nesting forest alone: the
block count, the forest factorial, the interval flag (every tree a single
block) and, when the forest is one tree (the partition is irreducible),
the omega of that tree.  So each length's table gives every partition its
blocks and its forest, and the forests come from the enumeration itself:
it fixes the block of the first point and partitions each gap on its own,
so a partition's forest is the forest of the gap after that block plus one
tree, whose children are the forests of the gaps inside it
(``partitions._nc_forests``).  The inputs are computed once per distinct
forest (357 up to order 11) and omega once per distinct tree.  The rows are
then grouped once per length, by shape (the sorted block sizes) and within
a shape by forest, and each direction evaluates its coefficient once per
forest, not once per row; one map gives each direction's coefficient as a
function of those inputs; one loop sums the block products.

That loop runs on integers.  Each direction's order-n coefficients are
numerators over one common denominator; the values are read from the
input's own integer rows (see ``prelie.Functional``), so a word's sum is an
integer over a denominator fixed per length, and each output row is
reduced once.

A shape's rows are stored as columns: the j-th column lists, for every
row, the index of its j-th block among the table's blocks (at most 2^n - 1
of them).  Each length first gathers the value of every block at every
word, one list per block, from the block's subword codes; a block's codes
are its prefix's codes times the alphabet size plus the letter at its last
point, so no subword is built.  Each word then multiplies whole columns of
its values, numerators included, in nested maps: one call per shape and
word, and no Python code per row.  A shape that reads a length whose
values are all zero is skipped.  The words are read in chunks that bound
the gathered values (``_GATHER``).

The caches are unbounded ``lru_cache``s, thread-safe, and all functions are
pure; the forest ids are interned afresh by each build, so no other state
is kept.  The caches keep, for every order n that a conversion or
``expansion_terms`` reached: ``_grouped(n)``, the rows of ``_nc_terms(n)``
(one per non-crossing partition, Catalan(n) rows, not cached) as columns
of block indices grouped by shape and by forest, with every row's forest
in table order; ``_columns(n, kept)``, the rows that the directions
keeping the same forests keep, shared by those directions (a direction
keeping every row shares ``_grouped``'s columns); ``_terms(direction,
n)``, one tuple of integer numerators per shape and direction; and
``partitions._nc_blocks``, the enumerated blocks.  ``trees.omega`` keeps
one omega per distinct nesting tree (112 up to order 11), read across
orders.
"""

from array import array
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import lcm, prod
from operator import add, getitem, mul

from . import partitions, trees
from .prelie import Functional, _common, _reduced

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


# the coefficient inputs of a nesting forest, shared by every row of a table
# whose partition has that forest: block count, forest factorial, interval
# flag, and the omega of its tree, None unless the forest is one tree
_Forest = namedtuple("_Forest", "nb ff iv om")


def _nc_terms(n):
    # one row per partition of [n], in enumerate_nc order: its 1-based
    # blocks and its nesting forest, a _Forest built once per distinct
    # forest from the ids of partitions._nc_forests.  A forest's id follows
    # its trees' children's, so one forward pass gives every block count
    # and factorial: a tree over the forest k has nb[k] + 1 blocks and
    # factorial (nb[k] + 1) * ff[k].  A partition is an interval one exactly
    # when every tree is a single block (its children the empty forest, id
    # 0), and irreducible exactly when there is one tree; omega is computed
    # for those trees only (trees.omega caches it across orders).
    partitions._check_enum_n(n)
    ids, forests = partitions._nc_forests(n)
    nb, ff = [], []
    for forest in forests:
        nb.append(sum(nb[k] + 1 for k in forest))
        ff.append(prod((nb[k] + 1) * ff[k] for k in forest))
    tree = {}

    def tree_over(k):
        t = tree.get(k)
        if t is None:
            t = tree[k] = trees.RootedTree(map(tree_over, forests[k]))
        return t

    record = {}
    for i in dict.fromkeys(ids):
        forest = forests[i]
        om = trees.omega(tree_over(forest[0])) if len(forest) == 1 else None
        record[i] = _Forest(nb[i], ff[i], not any(forest), om)
    points = tuple(range(1, n + 1))
    return tuple(zip(partitions._nc_blocks(points), map(record.__getitem__, ids)))


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


def _coefficient(direction, forest):
    # the coefficient in the sum of `direction` of a row with this nesting
    # forest, or None for a reducible row of a cumulant-to-cumulant sum,
    # which does not enter it
    if forest.om is None and direction[1] != "moment":
        return None
    return Fraction(_COEFF[direction](*forest))


def _code(count):
    # the array typecode of indices below count: 2 bytes while count < 2^16
    # (1,188 forests and 8,191 blocks at n = 13)
    return "H" if count < 1 << 16 else "L"


@lru_cache(maxsize=None)
def _grouped(n):
    # the order-n rows grouped once for every direction, as (forests, order,
    # blocks, shapes): forests lists each distinct nesting forest of the
    # rows once, order gives each row's index into forests in table order,
    # and blocks lists every block of the rows once.  A shape (the sorted
    # block sizes of a row) holds its rows as (shape, columns, runs,
    # sizes): the j-th column is an array of the index into blocks of each
    # row's j-th block, and the rows come in runs of one forest each,
    # runs[r] the forest's index and sizes[r] its row count.  The rows with
    # one forest share one _Forest, so its identity keys it and no omega is
    # hashed.
    index = {}
    forests, order = [], []
    groups = {}
    for blocks, forest in _nc_terms(n):
        i = index.get(id(forest))
        if i is None:
            i = index[id(forest)] = len(forests)
            forests.append(forest)
        order.append(i)
        shape = tuple(sorted(map(len, blocks)))
        runs = groups.get(shape)
        if runs is None:
            runs = groups[shape] = {}
        run = runs.get(i)
        if run is None:
            run = runs[i] = []
        run.append(blocks)
    # the 2^n - 1 blocks indexed in the order the columns first read them
    blocks = partitions._Memo(lambda block: len(blocks))
    code, bcode = _code(len(forests)), _code(1 << n)
    shapes = tuple(
        (
            shape,
            tuple(array(bcode, map(blocks.__getitem__, c)) for c in zip(*chain(*runs.values()))),
            array(code, runs),
            array("L", map(len, runs.values())),
        )
        for shape, runs in groups.items()
    )
    return tuple(forests), array(code, order), tuple(blocks), shapes


@lru_cache(maxsize=None)
def _columns(n, kept):
    # the order-n rows whose forest i has kept[i] set, as (shapes, plan):
    # each shape as in _grouped, with its kept runs only, and its columns
    # indexing the kept rows' own blocks, which plan gathers
    # (_gather_plan).  The directions that keep the same rows share one
    # entry, and keeping every row shares _grouped's blocks and columns.
    _, _, blocks, groups = _grouped(n)
    if all(kept):
        return groups, _gather_plan(blocks)
    shapes = []
    for shape, columns, runs, sizes in groups:
        keep = [
            (i, slice(end - size, end), size)
            for i, size, end in zip(runs, sizes, accumulate(sizes))
            if kept[i]
        ]
        if keep:
            runs, spans, sizes = zip(*keep)
            columns = [list(chain.from_iterable(map(c.__getitem__, spans))) for c in columns]
            shapes.append((shape, columns, array(_code(len(kept)), runs), array("L", sizes)))
    used = sorted(set().union(*chain.from_iterable(c for _, c, _, _ in shapes)))
    rank = [0] * len(blocks)
    for new, old in enumerate(used):
        rank[old] = new
    code = _code(len(used))
    shapes = tuple(
        (shape, tuple(array(code, map(rank.__getitem__, c)) for c in columns), runs, sizes)
        for shape, columns, runs, sizes in shapes
    )
    return shapes, _gather_plan(list(map(blocks.__getitem__, used)))


@lru_cache(maxsize=None)
def _terms(direction, n):
    # the rows with a nonzero coefficient, once per direction and order, as
    # (den, shapes, plan): den is the common denominator of the
    # coefficients, and each shape holds the columns of its kept rows and a
    # parallel tuple of their integer numerators over den (see _columns).
    # The coefficient is evaluated once per forest, not once per row.
    forests = _grouped(n)[0]
    cs = [_coefficient(direction, forest) for forest in forests]
    den = lcm(*(c.denominator for c in cs if c))
    nums = [c.numerator * (den // c.denominator) if c else 0 for c in cs]
    shapes, plan = _columns(n, bytes(map(bool, nums)))
    shapes = tuple(
        (shape, columns, tuple(chain.from_iterable(map(repeat, map(nums.__getitem__, runs), sizes))))
        for shape, columns, runs, sizes in shapes
    )
    return den, shapes, plan


def _gather_plan(blocks):
    # how _gathered reads the values of `blocks`, as (len(blocks), steps):
    # steps visits every block and every prefix of one in sorted order, as
    # parallel arrays of its length, its last point and its index into
    # blocks (-1 for a prefix that is no block).  In sorted order the
    # tuples extending a prefix follow it directly, so when a tuple of
    # length d is visited, the last tuple of length d - 1 visited is its
    # prefix.
    slot = {}
    for s, block in enumerate(blocks):
        for k in range(1, len(block)):
            slot.setdefault(block[:k], -1)
        slot[block] = s
    nodes = sorted(slot)
    steps = (
        array("B", map(len, nodes)),
        array("B", [node[-1] for node in nodes]),
        array("l", map(slot.__getitem__, nodes)),
    )
    return len(blocks), steps


# the most block values _gathered holds at once: a length's words are read
# in chunks of _GATHER // (the direction's blocks) words, at least one
_GATHER = 1 << 20


def _gathered(rows, m, q, plan, reads):
    # the values of a direction's blocks at every word of length m, as one
    # list per chunk of word codes: values[b][c] is the value of block b at
    # the chunk's c-th word.  The codes of a block's subwords over the chunk
    # come from its prefix's, g_{b+(i)} = q * g_b + digits[i], with
    # digits[i] the letter index at position i of each word (first letter
    # most significant), so one code list per length is kept.  Blocks of a
    # length not in `reads` are read by no row and are left 0.
    nblocks, steps = plan
    top = max(reads)
    width = max(1, _GATHER // nblocks)
    for lo in range(0, q**m, width):
        span = range(lo, min(lo + width, q**m))
        digits = [None] + [
            list(map(q.__rmod__, map((q ** (m - i)).__rfloordiv__, span))) for i in range(1, m + 1)
        ]
        codes = [None] * (top + 1)
        values = [[0] * len(span)] * nblocks
        for depth, point, slot in zip(*steps):
            if depth > top:
                continue
            g = codes[depth] = (
                digits[point] if depth == 1
                else list(map(add, map(q.__mul__, codes[depth - 1]), digits[point]))
            )
            if slot >= 0 and depth in reads:
                values[slot] = list(map(rows[depth].__getitem__, g))
        yield values


def _block_product(vals, columns, nums):
    # the sum over one shape's rows of numerator times the product of the
    # row's block values, at one word: vals holds the word's value of every
    # block, and columns[j] the index of every row's j-th block.  The
    # products run in nested maps over whole columns, so no Python code
    # runs per row.
    terms = nums
    for column in columns:
        terms = map(mul, terms, map(getitem, repeat(vals), column))
    return sum(terms)


def _partition_sum(src, direction, invert=False):
    # out(w) = sum over the order-|w| rows of coefficient * prod src(block).
    # With invert, solve src = that sum of out for out instead: the one-block
    # row has coefficient 1 in every direction into moments and is the only
    # row reading the full word, so out(w) is src(w) minus the other rows,
    # which read only shorter words, solved already.  out(w) reads as 0 while
    # they are summed, so the one-block row drops out with that zero length.
    #
    # The sum runs on integers.  The values read at length k (the input's
    # rows, or the outputs solved so far) are numerators over dens[k]; a row
    # of shape (k1, k2, ...) is then a numerator over den * dens[k1] *
    # dens[k2] * ..., so each shape's integer sum is brought to the lcm
    # `big` of those products by one factor, and each length's output row
    # is reduced once.
    #
    # Each length gathers the value of every block at every word once
    # (_gathered); each word then multiplies whole columns of its block
    # values (_block_product), one call per shape, so no subword is built
    # and no Python code runs per row.  A shape reading a length whose
    # values are all 0 adds nothing and is skipped.
    #
    # Every length up to max_order reads a table built from the enumeration,
    # so the enumeration bound is checked for the longest length before any
    # table is built.
    partitions._check_enum_n(src.max_order)
    q = len(src.alphabet)
    out_rows, out_dens = [[0]], [1]
    rows, dens = (out_rows, out_dens) if invert else (src._rows, src._dens)
    for m in range(1, src.max_order + 1):
        if invert:  # the outputs of length m read as 0 until solved
            out_rows.append([0] * q**m)
            out_dens.append(1)
        den, shapes, plan = _terms(direction, m)
        zero = [not any(row) for row in rows[: m + 1]]
        shapes = [s for s in shapes if not any(map(zero.__getitem__, s[0]))]
        big, lifts = _common([prod(dens[k] for k in shape) for shape, _, _ in shapes])
        out_den = den * big
        if shapes:
            reads = set().union(*(shape for shape, _, _ in shapes))
            shapes = [(columns, nums, lift) for (_, columns, nums), lift in zip(shapes, lifts)]
            sums = [
                sum(_block_product(vals, columns, nums) * lift for columns, nums, lift in shapes)
                for values in _gathered(rows, m, q, plan, reads)
                for vals in zip(*values)
            ]
        else:
            sums = [0] * q**m
        if invert:  # out(w) = src(w) - total / out_den
            src_den = src._dens[m]
            sums = [v * out_den - t * src_den for v, t in zip(src._rows[m], sums)]
            out_den *= src_den
        row, out_den = _reduced(sums, out_den)
        # in an inversion this replaces the zero row that length m read
        out_rows[m:], out_dens[m:] = [row], [out_den]
    return src._with_rows(zip(out_rows, out_dens))


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
    # checked first: a table cached before the bound was lowered is refused
    partitions._check_enum_n(n)
    forests, order, _, _ = _grouped(n)
    cs = [_coefficient((from_kind, to_kind), forest) for forest in forests]
    return [
        (partitions.NCPartition._wrap(blocks), cs[i])
        for blocks, i in zip(partitions._nc_blocks(tuple(range(1, n + 1))), order)
        if cs[i] is not None
    ]
