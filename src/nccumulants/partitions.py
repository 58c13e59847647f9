"""Non-crossing set partitions and their nesting structure.

Partitions live on finite sets of positive integers ordered naturally; the
enumerators produce partitions of {1..n}, while component extraction keeps
the original labels on sub-ground-sets (the multilinear evaluation in the
cumulant conversions needs the original positions).  Blocks are kept in
canonical form: elements ascending inside each block, blocks sorted by
their minimum.

Everything here is immutable after construction and every function is pure,
so concurrent use needs no locking.
"""

import os
import re
from collections import defaultdict
from functools import lru_cache
from itertools import chain, combinations, product
from math import factorial

from .trees import _MAX_DEPTH, Forest, RootedTree, forest_factorial

_DEFAULT_MAX_N = 12

# the most partitions enumerate_monotone_irr builds; n = 10, k = 6 has 67,284
_MAX_MONOTONE_IRR = 100_000


def _max_enum_n():
    raw = os.environ.get("NC_CUMULANTS_MAX_N")
    if raw is None:
        return _DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"NC_CUMULANTS_MAX_N must be an integer, got {raw!r}"
        ) from None


def _check_enum_n(n):
    bound = _max_enum_n()
    if not isinstance(n, int) or n < 1:
        raise ValueError("ground-set size must be a positive integer")
    if n > bound:
        raise ValueError(
            f"n = {n} exceeds the enumeration bound {bound}"
            " (set NC_CUMULANTS_MAX_N to raise it)"
        )


class NCPartition:
    """A non-crossing partition of a finite set of positive integers.

    ``NCPartition([[1, 3], [2]])`` is the partition {{1,3},{2}} of {1,2,3}.
    The ground set is the union of the blocks; the empty partition (no
    blocks) is allowed and is the base case of the block-subset recursion.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blks = tuple(tuple(sorted(b)) for b in blocks)
        if any(not b for b in blks):
            raise ValueError("empty block")
        blks = tuple(sorted(blks, key=lambda b: b[0]))
        _validate_blocks(blks)
        object.__setattr__(self, "blocks", blks)

    @classmethod
    def _wrap(cls, blocks):
        # trusted constructor for already-canonical, already-valid blocks
        self = object.__new__(cls)
        object.__setattr__(self, "blocks", blocks)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NCPartition is immutable")

    @classmethod
    def full(cls, n):
        """The one-block partition {{1..n}}."""
        if n < 1:
            raise ValueError("full(n) needs n >= 1")
        return cls._wrap((tuple(range(1, n + 1)),))

    @classmethod
    def discrete(cls, n):
        """The all-singletons partition {{1},...,{n}}."""
        if n < 1:
            raise ValueError("discrete(n) needs n >= 1")
        return cls._wrap(tuple((i,) for i in range(1, n + 1)))

    @property
    def ground(self):
        """The ground set as an ascending tuple."""
        return tuple(sorted(x for b in self.blocks for x in b))

    @property
    def size(self):
        """Number of elements in the ground set."""
        return sum(len(b) for b in self.blocks)

    @property
    def num_blocks(self):
        return len(self.blocks)

    def is_irreducible(self):
        """True iff the smallest and largest elements share a block."""
        if not self.blocks:
            return False
        first = self.blocks[0]
        return first[-1] == max(b[-1] for b in self.blocks)

    def text(self):
        """Canonical text form, e.g. "{{1,3},{2}}"."""
        return _blocks_text(self.blocks)

    def to_json(self):
        """JSON form: array of arrays of integers, canonical order."""
        return [list(b) for b in self.blocks]

    @classmethod
    def from_text(cls, s):
        """Parse the "{{1,3},{2}}" text form."""
        return cls(_blocks_from_text(s))

    @classmethod
    def from_json(cls, obj):
        return cls(obj)

    def __eq__(self, other):
        return isinstance(other, NCPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"NCPartition({self.text()!r})"


def _blocks_text(blocks):
    if not blocks:
        return "{}"
    return "{" + ",".join("{" + ",".join(str(x) for x in b) + "}" for b in blocks) + "}"


def _blocks_from_text(s):
    # "{" [block ("," block)*] "}", where block is "{" int ("," int)* "}"
    tokens = iter(re.findall(r"\d+|\S", s))

    def take(*allowed):
        tok = next(tokens, "")
        if tok not in allowed and not ("int" in allowed and tok.isdigit()):
            raise ValueError(f"malformed partition text: {s!r}")
        return tok

    take("{")
    blocks = []
    if take("{", "}") == "{":
        while True:
            block = [int(take("int"))]
            while take(",", "}") == ",":
                block.append(int(take("int")))
            blocks.append(tuple(block))
            if take(",", "}") == "}":
                break
            take("{")
    take("")
    return tuple(blocks)


def _validate_blocks(blocks):
    seen = set()
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        for x in b:
            if not isinstance(x, int) or x < 1:
                raise ValueError(f"block elements must be positive integers: {x!r}")
            if x in seen:
                raise ValueError(f"duplicate element {x}")
            seen.add(x)
    # crossing test: scan the ground set; a block may only close or continue
    # while it is the innermost open one
    owner = {}
    for i, b in enumerate(blocks):
        for x in b:
            owner[x] = i
    stack = []
    opened = set()
    for x in sorted(seen):
        i = owner[x]
        if i not in opened:
            opened.add(i)
            stack.append(i)
        elif stack[-1] != i:
            raise ValueError(f"blocks {blocks[stack[-1]]} and {blocks[i]} cross")
        if x == blocks[i][-1]:
            stack.pop()


class MonotonePartition:
    """A non-crossing partition with a block labeling that refines nesting.

    ``labels[i]`` is the label (1-based) of ``base.blocks[i]``; a block
    surrounding another must carry the smaller label.
    """

    __slots__ = ("base", "labels")

    def __init__(self, base, labels):
        labels = tuple(labels)
        k = base.num_blocks
        if sorted(labels) != list(range(1, k + 1)):
            raise ValueError("labels must be a bijection onto 1..num_blocks")
        parents = _parents(base.blocks)
        for child, par in enumerate(parents):
            if par is not None and labels[par] >= labels[child]:
                raise ValueError("labels must increase from outer to nested blocks")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("MonotonePartition is immutable")

    @property
    def blocks_by_label(self):
        """Blocks ordered by label, outermost (label 1) first."""
        order = sorted(range(len(self.labels)), key=lambda i: self.labels[i])
        return tuple(self.base.blocks[i] for i in order)

    def text(self):
        """Text form with block position encoding the label."""
        return _blocks_text(self.blocks_by_label)

    def to_json(self):
        return {"blocks": [list(b) for b in self.blocks_by_label]}

    def __eq__(self, other):
        return (
            isinstance(other, MonotonePartition)
            and self.base == other.base
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.base, self.labels))

    def __repr__(self):
        return f"MonotonePartition({self.text()!r})"


class BlockSubset:
    """A subset of a partition's blocks containing every outermost block."""

    __slots__ = ("base", "selected")

    def __init__(self, base, selected):
        selected = frozenset(selected)
        n = base.num_blocks
        for i in selected:
            if not isinstance(i, int) or not 0 <= i < n:
                raise ValueError(f"invalid block index {i!r}")
        for root, par in enumerate(_parents(base.blocks)):
            if par is None and root not in selected:
                raise ValueError("selection must contain every outer block")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "selected", selected)

    def __setattr__(self, name, value):
        raise AttributeError("BlockSubset is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, BlockSubset)
            and self.base == other.base
            and self.selected == other.selected
        )

    def __hash__(self):
        return hash((self.base, self.selected))

    def __repr__(self):
        return f"BlockSubset({self.base.text()!r}, {sorted(self.selected)})"


def _parents(blocks):
    # parent[j] = index of the innermost block surrounding block j, or None.
    # The blocks come sorted by their least point, so one stack sweep finds
    # every parent: the stack holds the chain of spans still open, innermost
    # on top; pop each one that closed before block j starts, and the top
    # surrounds j, since a non-crossing block that starts inside a span ends
    # inside it too.
    parents = []
    stack = []
    for j, b in enumerate(blocks):
        start = b[0]
        while stack and blocks[stack[-1]][-1] < start:
            stack.pop()
        parents.append(stack[-1] if stack else None)
        stack.append(j)
    return tuple(parents)


def enumerate_nc(n):
    """All non-crossing partitions of {1..n} in canonical form.

    The count is the n-th Catalan number.  Bounded by default at n = 12;
    the NC_CUMULANTS_MAX_N environment variable overrides the bound.
    """
    _check_enum_n(n)
    return [NCPartition._wrap(blocks) for blocks in _nc_blocks(tuple(range(1, n + 1)))]


@lru_cache(maxsize=None)
def _nc_blocks(points):
    # every non-crossing partition arises once: fix the block containing the
    # first point, then independently partition the gaps it carves out
    if not points:
        return ((),)
    rest = points[1:]
    results = []
    for r in range(len(rest) + 1):
        for idxs in combinations(range(len(rest)), r):
            block = (points[0],) + tuple(rest[i] for i in idxs)
            segments = []
            prev = 0
            for i in idxs:
                segments.append(rest[prev:i])
                prev = i + 1
            segments.append(rest[prev:])
            for combo in product(*[_nc_blocks(seg) for seg in segments]):
                blocks = (block,)
                for sub in combo:
                    blocks += sub
                results.append(blocks)
    return tuple(results)


class _Memo(dict):
    # a dict that fills a missing key with make(key)
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _nc_forests(n):
    # the nesting forest of every partition of [n], as (ids, forests): ids
    # gives one forest id per partition, in _nc_blocks order, and forests[i]
    # is forest i as the sorted tuple of its trees, each tree given by the
    # id of the forest of its children; id 0 is the empty forest, and a
    # forest's id follows the ids of its trees' children.
    #
    # _nc_blocks fixes the block B of the first point and partitions each
    # gap on its own: the forests of the gaps inside B together form B's
    # children, and B's tree joins the forest of the gap after B.  So each
    # length's ids are composed, in the same product order, from the ids of
    # shorter lengths, memoised on the gaps' ids.  The ids are interned per
    # call, so equal forests get one id and nothing outlives the call.
    forests = []

    def intern(forest):
        forests.append(forest)
        return len(forests) - 1

    index = _Memo(intern)
    index[()]

    def children(gaps):  # the forest that the gaps inside B form
        return index[tuple(sorted(chain.from_iterable(map(forests.__getitem__, gaps))))]

    def joined(pair):  # B over its children, beside the trailing forest
        kids, trailing = pair
        return index[tuple(sorted(forests[trailing] + (kids,)))]

    kids_of, forest_of = _Memo(children), _Memo(joined)
    by_length = [[0]]
    for m in range(1, n + 1):
        ids = []
        for r in range(m):
            for idxs in combinations(range(m - 1), r):
                # B's other points among the m - 1 after the first, as in
                # _nc_blocks; the lengths of its gaps, the one after B last
                lengths = [b - a - 1 for a, b in zip((-1,) + idxs, idxs + (m - 1,))]
                trailing = by_length[lengths.pop()]
                kids = map(kids_of.__getitem__, product(*map(by_length.__getitem__, lengths)))
                ids.extend(map(forest_of.__getitem__, product(kids, trailing)))
        by_length.append(ids)
    return by_length[n], tuple(forests)


def enumerate_nc_irr(n):
    """All irreducible non-crossing partitions of {1..n} (1 and n in one block).

    The count is the (n-1)-th Catalan number.
    """
    return [p for p in enumerate_nc(n) if p.is_irreducible()]


def nesting_lt(p, i, j):
    """True iff block ``j`` lies strictly inside block ``i`` (0-based indices)."""
    blocks = p.blocks
    k = len(blocks)
    if i == j or not (0 <= i < k) or not (0 <= j < k):
        raise ValueError(f"invalid block index pair ({i}, {j})")
    bi, bj = blocks[i], blocks[j]
    return bi[0] < bj[0] and bj[-1] < bi[-1]


def irreducible_components(p):
    """The unique left-to-right split into irreducible partitions.

    Components keep their original integer labels; concatenating their
    ground sets recovers the ground set of ``p``.
    """
    comps = []
    blocks = p.blocks
    start = 0
    while start < len(blocks):
        end = blocks[start][-1]
        stop = start + 1
        while stop < len(blocks) and blocks[stop][0] < end:
            stop += 1
        comps.append(NCPartition._wrap(blocks[start:stop]))
        start = stop
    return comps


def nesting_forest(p):
    """Rooted forest of the block nesting order: one tree per irreducible
    component, children being the directly nested blocks.

    Blocks nested deeper than ``trees._MAX_DEPTH`` levels are refused.
    """
    parents = _parents(p.blocks)
    # a parent precedes its children in canonical block order, so depths
    # fill in one forward sweep and subtrees in one reverse sweep
    depth = []
    for par in parents:
        depth.append(1 if par is None else depth[par] + 1)
    if max(depth, default=0) > _MAX_DEPTH:
        raise ValueError(f"blocks nested deeper than {_MAX_DEPTH} levels")
    children = defaultdict(list)  # the roots under None
    for j in range(len(parents) - 1, -1, -1):
        children[parents[j]].append(RootedTree(children.pop(j, ())))
    return Forest(children[None])


def monotone_count_partition(p):
    """Number of block labelings of ``p`` that refine the nesting order.

    Equals |blocks|! divided by the forest factorial of the nesting forest.
    """
    return factorial(p.num_blocks) // forest_factorial(nesting_forest(p))


def enumerate_monotone_irr(n, k):
    """All irreducible monotone partitions of {1..n} with ``k`` blocks.

    Realized by exhaustive recursion over the choices of the generating
    process: the block labeled k is an interval of the current point set
    avoiding both endpoints, and the rest is an irreducible monotone
    partition of the complement with k-1 blocks.  Returns an empty list
    when none exist.  Bounded like ``enumerate_nc``, and refused when the
    family has more than ``_MAX_MONOTONE_IRR`` members, which is counted
    before anything is built.
    """
    _check_enum_n(n)
    if k < 1 or k > n:
        return []
    count = _mono_irr_count(n, k)
    if count > _MAX_MONOTONE_IRR:
        raise ValueError(
            f"the {count} irreducible monotone partitions of {n} points with"
            f" {k} blocks exceed the limit of {_MAX_MONOTONE_IRR}"
        )
    out = []
    for seq in _mono_irr(tuple(range(1, n + 1)), k):
        base = NCPartition(seq)
        position = {b: i + 1 for i, b in enumerate(seq)}
        labels = tuple(position[b] for b in base.blocks)
        out.append(MonotonePartition(base, labels))
    return out


@lru_cache(maxsize=None)
def _mono_irr_count(m, k):
    # the length of _mono_irr on m points: the block labeled k is an interval
    # of length j avoiding both endpoints, at one of m - 1 - j places
    if k == 1:
        return 1 if m else 0
    return sum((m - 1 - j) * _mono_irr_count(m - j, k - 1) for j in range(1, m - 1))


def _mono_irr(points, k):
    # sequences of blocks in label order (outermost first)
    if k == 1:
        return [(points,)] if points else []
    m = len(points)
    out = []
    for i in range(1, m - 1):
        for j in range(i + 1, m):
            alpha = points[i:j]
            rest = points[:i] + points[j:]
            for sub in _mono_irr(rest, k - 1):
                out.append(sub + (alpha,))
    return out


def sub_families(p):
    """All block subsets of ``p`` containing every outermost block.

    The empty partition yields the single empty subset.
    """
    parents = _parents(p.blocks)
    roots = [j for j, par in enumerate(parents) if par is None]
    optional = [j for j, par in enumerate(parents) if par is not None]
    out = []
    for r in range(len(optional) + 1):
        for extra in combinations(optional, r):
            out.append(BlockSubset(p, frozenset(roots) | frozenset(extra)))
    return out


def v_components(subset):
    """Split a partition along a block subset.

    Returns ``(nu, comps)`` where ``nu`` is the partition formed by the
    selected blocks on their union, and ``comps`` assigns every block of the
    base to its nearest selected ancestor-or-self, each group forming an
    irreducible partition of its own ground set whose outermost block is the
    selected one.  The groups partition the blocks of the base.
    """
    p = subset.base
    sel = subset.selected
    parents = _parents(p.blocks)
    owner = []
    for j in range(len(p.blocks)):
        cur = j
        while cur not in sel:
            cur = parents[cur]
        owner.append(cur)
    picked = sorted(sel)
    nu = NCPartition._wrap(tuple(p.blocks[i] for i in picked))
    comps = []
    for i in picked:
        members = tuple(p.blocks[j] for j in range(len(p.blocks)) if owner[j] == i)
        comps.append(NCPartition._wrap(members))
    return nu, comps


def min_max_lt(p, s):
    """The min-max comparison: ``p`` refines ``s`` and each block of ``s``
    has its minimum and maximum inside a single block of ``p``."""
    if p.ground != s.ground:
        raise ValueError("min_max_lt needs partitions of the same ground set")
    block_of_p = {}
    for i, b in enumerate(p.blocks):
        for x in b:
            block_of_p[x] = i
    block_of_s = {}
    for i, b in enumerate(s.blocks):
        for x in b:
            block_of_s[x] = i
    for b in p.blocks:
        if any(block_of_s[x] != block_of_s[b[0]] for x in b):
            return False
    for b in s.blocks:
        if block_of_p[b[0]] != block_of_p[b[-1]]:
            return False
    return True


def is_interval(p):
    """True iff every block is a run of consecutive elements of the ground set."""
    ground = p.ground
    pos = {x: i for i, x in enumerate(ground)}
    for b in p.blocks:
        if pos[b[-1]] - pos[b[0]] != len(b) - 1:
            return False
    return True
