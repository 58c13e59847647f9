"""Conversions among moments and the free, Boolean and monotone cumulants.

The six cumulant-to-cumulant directions are closed sums over irreducible
non-crossing partitions, with a coefficient depending only on the block
count, the nesting-tree factorial, and the omega weight of the nesting
tree.  Free -> Boolean, free -> monotone and monotone -> free are kept as
sums; the sign duality D(f)(c) = -f(-c) swaps free and Boolean cumulants in
every such sum, so the other three are -f(-c) of a kept sum f
(``_closed``), with (-1)^(blocks - 1) times its coefficients.  Every
direction touching moments goes through Boolean cumulants: X -> moment is
the closed sum X -> Boolean followed by the interval fill, and moment -> X
is the inverse fill followed by the closed sum Boolean -> X (for X Boolean,
the fill alone).  The interval fill is the first-interval relation
phi(w) = sum over w = u v, u non-empty, of beta(u) phi(v), with phi of the
empty word 1, solved one length at a time either way (``_interval_fill``);
it reads no partition table, so the enumeration bound does not cap it.  The
closed sums into moments over all non-crossing partitions (interval
partitions only, from Boolean) remain, as
``_partition_sum(c, (kind, "moment"))`` and in ``expansion_terms``, the
independent check of those routes, not a route of their own.

The coefficient inputs are functions of the nesting forest alone, all read
from ``trees``: the block count, the forest factorial (1 exactly when no
block is nested: the interval partitions) and, when the forest is one tree
(the partition is irreducible), its omega.  Each length's table holds its
rows in runs of one shape (the sorted block sizes) and one
``trees.Forest``, composed once per pair of the shorter lengths' runs,
never one partition at a time (``_nc_terms``).  Each kept sum evaluates its
coefficient once per run; one loop sums the block products.

That loop runs on integers (``_partition_sum``): each kept sum's order-n
coefficients are numerators over one common denominator, and the values
are the input's own integer rows (see ``prelie.Functional``).  A shape's
rows are bitmask columns, ranked once per kept sum into columns of block
indices; each length gathers every block's value at every word once, and
each word multiplies whole columns in nested maps, one call per shape and
word and no Python code per row.

The caches are unbounded ``lru_cache``s, thread-safe, and all functions are
pure; the cached arrays are shared and never written.  They keep, for every
order n that a conversion reached: ``_nc_terms(n)``, the rows of each shape
as bitmask columns, with each run's forest, root block size and row count;
and ``_terms(direction, n)``, for each kept sum that ran, the index columns
of the rows it keeps and one tuple of integer numerators per shape.
``trees.omega`` and ``trees.tree_factorial`` keep one entry per nesting
tree a kept sum read (112 up to order 11).  No conversion enumerates a
partition.  ``expansion_terms`` (``nccum convert --show-order``) does, and
reads no table: it lists each partition with the coefficient of its own
nesting forest from the same map, the table's check.
"""

from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import lcm, prod
from operator import add, getitem, mul

from . import partitions, trees
from .prelie import Functional, _common, _product_at, _reduced

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
    # the order-n rows, one (shape, columns, runs) per shape (sorted block
    # sizes): columns[j] lists every row's j-th block as its bitmask over
    # [n], point i the bit i - 1, and the rows come in runs (key, rows) of
    # one key (forest, root): the nesting trees.Forest and, for one tree (an
    # irreducible partition), the size of its root block, column 0, else 0.
    #
    # NC(n) is Irr(k) beside NC(n - k), k = 1..n, where Irr holds the
    # irreducible partitions (first and last point in the root block), and
    # Irr(n) is Irr(k) whose root takes point n over NC(n - 1 - k) in
    # between.  Each pair of cached runs is composed once, the pairs that
    # meet in one shape and key make one run, and a shape's runs are tiled
    # into one set of columns.
    partitions._check_enum_n(n)
    code = _code(1 << n)
    states, joined = {}, {}
    if n == 1:  # the one block {1}
        states[(1,), trees.Forest([trees.RootedTree()]), 1] = [((1, [array(code, [1])]), (1, []))]
    for k in range(1, n):
        beside, below = _runs(n - k, code, k), _runs(n - 1 - k, code, k)
        for shape, (forest, root), a, columns in _runs(k, code, 0, True):
            for shape2, (forest2, _), b, columns2 in beside:  # Irr(k), NC(n - k)
                new = tuple(sorted(shape + shape2)), _joined(joined, forest, forest2, False), 0
                states.setdefault(new, []).append(((a, columns), (b, columns2)))
            shape = shape[: shape.index(root)] + (root + 1,) + shape[shape.index(root) + 1 :]
            left = a, [array(code, map((1 << n - 1).__or__, columns[0])), *columns[1:]]
            for shape2, (forest2, _), b, columns2 in below:  # the root takes point n over these
                new = tuple(sorted(shape + shape2)), _joined(joined, forest, forest2, True), root + 1
                states.setdefault(new, []).append((left, (b, columns2)))
    shapes = {}
    for (shape, forest, root), pairs in states.items():
        runs, tiles = shapes.setdefault(shape, ([], []))
        runs.append(((forest, root), sum(a * b for (a, _), (b, _) in pairs)))
        tiles += pairs
    return tuple(
        (shape, _tiled(code, len(shape), tiles), tuple(runs))
        for shape, (runs, tiles) in shapes.items()
    )


def _joined(joined, forest, forest2, under):
    # forest2's trees beside forest's one tree, or under its root, built once per order
    key = forest.encoding, forest2.encoding, under
    if key not in joined:
        new = (forest.trees[0].children if under else forest.trees) + forest2.trees
        joined[key] = trees.Forest([trees.RootedTree(new)] if under else new)
    return joined[key]


def _runs(k, code, shift=0, roots=False):
    # the runs of _nc_terms(k) as (shape, key, rows, columns), each block as
    # its bitmask moved `shift` points right; with roots, only the runs of
    # one tree.  The partition of no points is one row of no blocks.
    if not k:
        return [((), (trees.Forest(), 0), 1, [])]
    out = []
    for shape, columns, runs in _nc_terms(k):
        for (key, rows), end in zip(runs, accumulate(rows for _, rows in runs)):
            if not roots or key[1]:
                run = [array(code, map(shift.__rlshift__, c[end - rows : end])) for c in columns]
                out.append((shape, key, rows, run))
    return out


def _tiled(code, width, pairs):
    # the `width` columns of one shape from its (rows, columns) pairs, in
    # order: every left row beside every right one.  The side with fewer rows repeats
    # whole, and each block of the other repeats over a stride of as many.
    total = sum(a * b for (a, _), (b, _) in pairs)
    out = [array(code, [0]) * total for _ in range(width)]
    r = 0
    for (a, left), (b, right) in pairs:
        end, step = r + a * b, min(a, b)
        sides = (out, left, b, a == step), (out[len(left) :], right, a, a != step)
        for cols, side, times, whole in sides:
            for col, c in zip(cols, side):
                if whole:
                    col[r:end] = c * times
                else:
                    for t in range(step):
                        col[r + t : end : step] = c
        r = end
    return out


# The coefficient of a partition in each kept closed sum, from its block
# count, forest factorial and omega.  The three cumulant-to-cumulant sums
# run over irreducible partitions only; the sums into moments run over all
# of them, from Boolean cumulants over the interval partitions: those with
# no nested block, so forest factorial 1.  The other three
# cumulant-to-cumulant sums are the sign duals of these (see _closed).
_COEFF = {
    ("free", "boolean"): lambda nb, ff, om: 1,
    ("monotone", "free"): lambda nb, ff, om: Fraction((-1) ** (nb - 1), ff),
    ("free", "monotone"): lambda nb, ff, om: (-1) ** (nb - 1) * om,
    ("free", "moment"): lambda nb, ff, om: 1,
    ("boolean", "moment"): lambda nb, ff, om: int(ff == 1),
    ("monotone", "moment"): lambda nb, ff, om: Fraction(1, ff),
}


def _kept(direction):
    # the kept sum of a closed direction, and whether the direction is its
    # sign dual: the kept sum with free and Boolean swapped
    if direction in _COEFF:
        return direction, False
    swap = {"free": "boolean", "boolean": "free", "monotone": "monotone"}
    return tuple(map(swap.__getitem__, direction)), True


def _coefficient(direction, forest):
    # the coefficient in the sum of `direction` of a row with this nesting
    # trees.Forest, from its block count, forest factorial and, for one
    # tree, omega; None for a reducible row of a cumulant-to-cumulant sum,
    # which does not enter it.  A sign dual -f(-c) has (-1)^(nb - 1) times
    # the kept sum's coefficient: each of the nb blocks reads -c.
    one = len(forest.trees) == 1
    if not one and direction[1] != "moment":
        return None
    kept, dual = _kept(direction)
    nb, om = forest.size, trees.omega(forest.trees[0]) if one else None
    c = Fraction(_COEFF[kept](nb, trees.forest_factorial(forest), om))
    return (-1) ** (nb - 1) * c if dual else c


def _code(count):
    # the array typecode of indices or bitmasks below count: 2 bytes while
    # count < 2^16 (bitmasks below 2^12 at n = 12)
    return "H" if count < 1 << 16 else "L"


def _block(mask):  # the points of the block with this bitmask, ascending
    return tuple(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


@lru_cache(maxsize=None)
def _terms(direction, n):
    # the rows with a nonzero coefficient, once per kept direction and
    # order, as (den, shapes, plan): den is the common denominator of the
    # coefficients, and each shape holds the columns of its kept rows (as in
    # _nc_terms, but indexing the kept rows' own blocks, which plan gathers;
    # see _gather_plan) and a parallel tuple of their integer numerators
    # over den.  The coefficient is evaluated once per run, not per row.
    # Blocks are indexed in the order the columns first read them, so the
    # products read the gathered values nearly in order (5% faster at order
    # 11 than by bitmask).
    table = _nc_terms(n)
    cs = [[_coefficient(direction, forest) for (forest, _), _ in runs] for _, _, runs in table]
    den = lcm(*(c.denominator for c in chain.from_iterable(cs) if c))
    shapes = []
    for (shape, columns, runs), coeffs in zip(table, cs):
        keep = [
            (slice(end - rows, end), c.numerator * (den // c.denominator), rows)
            for (_, rows), end, c in zip(runs, accumulate(rows for _, rows in runs), coeffs)
            if c
        ]
        if keep:
            spans, nums, sizes = zip(*keep)
            columns = [array(c.typecode, chain(*map(c.__getitem__, spans))) for c in columns]
            shapes.append((shape, columns, tuple(chain.from_iterable(map(repeat, nums, sizes)))))
    used = dict.fromkeys(chain.from_iterable(chain.from_iterable(c for _, c, _ in shapes)))
    rank, code = {mask: i for i, mask in enumerate(used)}, _code(len(used))
    shapes = tuple(
        (shape, tuple(array(code, map(rank.__getitem__, c)) for c in columns), nums)
        for shape, columns, nums in shapes
    )
    return den, shapes, _gather_plan(list(map(_block, used)))


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


def _partition_sum(src, direction):
    # out(w) = sum over the order-|w| rows of coefficient * prod src(block).
    #
    # The sum runs on integers.  The input's values at length k are
    # numerators over dens[k]; a row of shape (k1, k2, ...) is then a
    # numerator over den * dens[k1] * dens[k2] * ..., so each shape's integer
    # sum is brought to the lcm `big` of those products by one factor, and
    # each length's output row is reduced once.
    #
    # Each length gathers the value of every block at every word once
    # (_gathered); each word then multiplies whole columns of its block
    # values (_block_product), one call per shape, so no subword is built
    # and no Python code runs per row.  A shape reading a length whose
    # values are all 0 adds nothing and is skipped.
    #
    # The enumeration bound still caps the orders whose tables are built
    # (composed, not enumerated); the longest length is checked first.
    partitions._check_enum_n(src.max_order)
    q = len(src.alphabet)
    rows, dens = src._rows, src._dens
    zero = [not any(row) for row in rows]
    out = [([0], 1)]
    for m in range(1, src.max_order + 1):
        den, shapes, plan = _terms(direction, m)
        shapes = [s for s in shapes if not any(map(zero.__getitem__, s[0]))]
        big, lifts = _common([prod(dens[k] for k in shape) for shape, _, _ in shapes])
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
        out.append(_reduced(sums, den * big))
    return src._with_rows(out)


def _interval_fill(src, invert=False):
    # Moments from Boolean cumulants by the first interval, or with invert
    # the Boolean cumulants of moments, one length m at a time:
    #     phi_m = beta_m + sum_{k<m} beta_k (x) phi_{m-k},
    #     beta_m = phi_m - sum_{k<m} beta_k (x) phi_{m-k},
    # with (beta_k (x) phi_{m-k})[p q^(m-k) + s] = beta_k[p] phi_{m-k}[s]:
    # prelie._product_at at cut position 0, beta the inner factor, the sign
    # in its factors.  The output's shorter lengths are final already; each
    # length is one integer row over its terms' lcm, reduced once.
    q = len(src.alphabet)
    rows, dens = [[0]], [1]
    own, built = (src._rows, src._dens), (rows, dens)
    (beta, bden), (phi, pden) = (built, own) if invert else (own, built)
    for m in range(1, src.max_order + 1):
        terms = [bden[k] * pden[m - k] for k in range(1, m)]
        den, (lift, *factors) = _common([src._dens[m], *terms])
        row = _product_at(beta, phi, m, q, [-f if invert else f for f in factors], lambda k: (0,))
        row, den = _reduced(list(map(add, row, map(lift.__mul__, src._rows[m]))), den)
        rows.append(row)
        dens.append(den)
    return src._with_rows(zip(rows, dens))


def _closed(c, direction):
    # a kept sum, or the sign dual -f(-c) of the kept sum f with free and
    # Boolean swapped (Arizmendi, Hasebe, Lehner and Vargas 2015)
    kept, dual = _kept(direction)
    return _partition_sum(c.negate(), kept).negate() if dual else _partition_sum(c, kept)


def boolean_from_free(kappa):
    """Boolean cumulants from free ones: the plain sum over irreducible
    non-crossing partitions of the block products."""
    return _closed(kappa, ("free", "boolean"))


def free_from_boolean(beta):
    """Free cumulants from Boolean ones: the sum over irreducible
    non-crossing partitions of the block products signed by
    (-1)^(blocks-1), computed as -f(-beta) with f the sum of
    ``boolean_from_free``."""
    return _closed(beta, ("boolean", "free"))


def free_from_monotone(rho):
    """Free cumulants from monotone ones: signed and divided by the
    nesting-tree factorial."""
    return _closed(rho, ("monotone", "free"))


def boolean_from_monotone(rho):
    """Boolean cumulants from monotone ones: the sum over irreducible
    non-crossing partitions of the block products divided by the
    nesting-tree factorial, all signs positive, computed as -f(-rho) with f
    the sum of ``free_from_monotone``."""
    return _closed(rho, ("monotone", "boolean"))


def monotone_from_free(kappa):
    """Monotone cumulants from free ones: weighted by the omega coefficient
    of the nesting tree, signed by (-1)^(blocks-1).

    Agrees word-by-word with ``prelie.magnus``.
    """
    return _closed(kappa, ("free", "monotone"))


def monotone_from_boolean(beta):
    """Monotone cumulants from Boolean ones: the sum over irreducible
    non-crossing partitions of the block products weighted by the omega
    coefficient of the nesting tree, all signs positive, computed as
    -f(-beta) with f the sum of ``monotone_from_free``.  It equals the
    negated fixed-point expansion of the negated input, which the test
    suite checks directly."""
    return _closed(beta, ("boolean", "monotone"))


def _require_cumulant_kind(kind):
    if kind not in CUMULANT_KINDS:
        raise ValueError(f"kind must be one of {CUMULANT_KINDS}, got {kind!r}")


def moments_from(kind, c):
    """Moments from a cumulant family: the Boolean cumulants by the closed
    sum over irreducible non-crossing partitions (none from Boolean ones),
    then the moments by the first interval, phi(w) = sum over w = u v, u
    non-empty, of beta(u) phi(v), with phi of the empty word 1."""
    _require_cumulant_kind(kind)
    beta = c if kind == "boolean" else _closed(c, (kind, "boolean"))
    return _interval_fill(beta)


def cumulants_from_moments(kind, phi):
    """The unique cumulant family of the given kind whose moments are ``phi``.

    The first interval of ``moments_from`` is solved for the Boolean
    cumulants one length at a time, as only its one-interval term reads the
    full word; the closed irreducible sum then gives the other kinds.
    """
    _require_cumulant_kind(kind)
    beta = _interval_fill(phi, invert=True)
    return beta if kind == "boolean" else _closed(beta, ("boolean", kind))


def convert(family, to_kind):
    """Convert a tagged family to any of the four kinds.

    Identity when the kinds coincide; otherwise the closed irreducible
    partition sum between cumulant kinds, and ``moments_from`` or
    ``cumulants_from_moments`` for a direction touching moments.
    """
    if to_kind not in KINDS:
        raise ValueError(f"unknown kind {to_kind!r}; expected one of {KINDS}")
    if family.kind == to_kind:
        return family
    if family.kind == "moment":
        data = cumulants_from_moments(to_kind, family.data)
    elif to_kind == "moment":
        data = moments_from(family.kind, family.data)
    else:
        data = _closed(family.data, (family.kind, to_kind))
    return CumulantFamily(to_kind, data)


def expansion_terms(from_kind, to_kind, n):
    """The order-n expansion of a conversion as (partition, coefficient) rows.

    Available for the six cumulant-to-cumulant directions and the three
    cumulant-to-moment sums over NC(n) that check the route through Boolean
    cumulants; moment-to-cumulant directions are recursions, with no such sum.
    A sign dual's rows carry (-1)^(blocks-1) times its kept sum's coefficient.
    Each row is a partition of ``enumerate_nc`` (``enumerate_nc_irr``
    between cumulants), in that order, with the coefficient read off its
    own nesting forest; no table is read, so the rows check the tables.
    """
    if from_kind == to_kind:
        raise ValueError("identity conversion has no expansion")
    if from_kind == "moment":
        raise ValueError(
            "moment-to-cumulant conversions are recursive inversions with no"
            " closed order-n expansion"
        )
    if from_kind not in KINDS or to_kind not in KINDS:
        raise ValueError(
            f"unknown conversion {from_kind!r} -> {to_kind!r}; kinds are {KINDS}"
        )
    coeffs = {}  # by parent array, which fixes the nesting forest
    every = partitions.enumerate_nc(n) if to_kind == "moment" else partitions.enumerate_nc_irr(n)
    keys = [partitions._parents(p.blocks) for p in every]
    for p, key in zip(every, keys):
        if key not in coeffs:
            coeffs[key] = _coefficient((from_kind, to_kind), partitions.nesting_forest(p))
    return [(p, coeffs[key]) for p, key in zip(every, keys)]
