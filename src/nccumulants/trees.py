"""Canonical non-planar rooted trees and forests.

Rooted trees encode the nesting hierarchy of non-crossing partitions: one
vertex per block, children being the directly nested blocks.  This module
provides the bracket-text codec, tree and forest factorials, leaf removals,
linear-extension counts, the rank-k strict labeling counts ``omega_k``, and
the rational coefficient ``omega`` obtained from them by an alternating sum.
``omega`` is the weight attached to each irreducible partition in the closed
monotone-from-free cumulant conversion; ``oracle.omega_recursive``
recomputes it through a Bernoulli-number recursion over block subsets and
serves as an independent cross-check.

All coefficients are exact ``fractions.Fraction`` values; no floating point
is used anywhere.  Trees and forests are immutable, every function is pure,
and the memo caches are the thread-safe ``functools.lru_cache``.  They are
unbounded and live as long as the process:

- ``tree_factorial`` and ``_strict_counts``, keyed on a tree: one entry per
  distinct tree or subtree reached (the factorial an int, the counts a
  tuple of |t| + 1 ints);
- ``omega``, keyed on a tree: one ``Fraction`` per distinct tree it is
  called on; each order's partition table calls it once per distinct
  nesting tree of that order, so it takes the repeats across orders (112
  trees up to order 11);
- ``bernoulli``, keyed on n: one entry per index up to the largest asked;
- ``trees_of_size``, keyed on n: every tree of each size up to n (1, 1, 2,
  4, 9, 20, 48, 115, 286, 719 trees for n = 1..10), so it grows
  exponentially in the largest size asked; sizes above 12 are refused, so
  it holds at most 7,813 trees.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


# the largest size trees_of_size and trees_up_to build: the count grows
# about 2.95-fold per vertex, 4,766 trees at 12 and 87,811 at 15
_MAX_TREE_SIZE = 12

# the deepest nesting parse_forest and partitions.nesting_forest accept: the
# tree walks (tree_factorial, omega, monotone_count) recurse once per level,
# through a memo cache that costs a second stack frame per level
_MAX_DEPTH = 200


class TreeParseError(ValueError):
    """Raised for malformed bracket encodings."""


class RootedTree:
    """A non-planar rooted tree in canonical form.

    Children are stored sorted by their bracket encoding, so trees differing
    only in the order of children compare equal:

    >>> parse_tree("[[][[]]]") == parse_tree("[[[]][]]")
    True
    """

    __slots__ = ("children", "encoding", "size")

    def __init__(self, children=()):
        kids = tuple(sorted(children, key=lambda t: (t.size, t.encoding)))
        object.__setattr__(self, "children", kids)
        object.__setattr__(self, "encoding", "[" + "".join(t.encoding for t in kids) + "]")
        object.__setattr__(self, "size", 1 + sum(t.size for t in kids))

    def __setattr__(self, name, value):
        raise AttributeError("RootedTree is immutable")

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __repr__(self):
        return f"RootedTree({self.encoding!r})"


class Forest:
    """A multiset of rooted trees, kept sorted by encoding.

    The encoding of a forest is the concatenation of its trees' encodings;
    the empty forest encodes as the empty string.
    """

    __slots__ = ("trees", "encoding", "size")

    def __init__(self, trees=()):
        ts = tuple(sorted(trees, key=lambda t: (t.size, t.encoding)))
        object.__setattr__(self, "trees", ts)
        object.__setattr__(self, "encoding", "".join(t.encoding for t in ts))
        object.__setattr__(self, "size", sum(t.size for t in ts))

    def __setattr__(self, name, value):
        raise AttributeError("Forest is immutable")

    def __eq__(self, other):
        return isinstance(other, Forest) and self.encoding == other.encoding

    def __hash__(self):
        return hash(("forest", self.encoding))

    def __repr__(self):
        return f"Forest({self.encoding!r})"


def parse_tree(s):
    """Parse bracket notation such as "[[][]]" into a canonical RootedTree."""
    trees = parse_forest(s).trees
    if len(trees) != 1:
        raise TreeParseError(f"expected a single tree, got {len(trees)} in {s!r}")
    return trees[0]


def parse_forest(s):
    """Parse concatenated bracket notation (e.g. "[[]][]") into a Forest.

    Nesting deeper than ``_MAX_DEPTH`` levels is refused.
    """
    text = "".join(s.split())
    if not text:
        raise TreeParseError("empty tree encoding")
    # the finished children of every open bracket, the forest at the bottom
    stack = [[]]
    for ch in text:
        if ch == "[":
            if len(stack) > _MAX_DEPTH:
                raise TreeParseError(f"trees nested deeper than {_MAX_DEPTH} levels")
            stack.append([])
        elif ch == "]" and len(stack) > 1:
            kids = stack.pop()
            stack[-1].append(RootedTree(kids))
        else:
            raise TreeParseError(f"unbalanced brackets in {s!r}")
    if len(stack) > 1:
        raise TreeParseError(f"unbalanced brackets in {s!r}")
    return Forest(stack[0])


@lru_cache(maxsize=None)
def tree_factorial(t):
    """Recursive tree factorial: the vertex count times the children's factorials.

    >>> tree_factorial(parse_tree("[[][]]"))
    3
    """
    result = t.size
    for child in t.children:
        result *= tree_factorial(child)
    return result


def forest_factorial(f):
    """Product of the tree factorials over a forest; 1 for the empty forest."""
    result = 1
    for t in f.trees:
        result *= tree_factorial(t)
    return result


def leaf_removals(t):
    """Multiset of trees obtained by deleting one leaf of ``t`` (with its edge).

    One entry per leaf, so the result's length equals the leaf count.
    Removing the only vertex of a one-vertex tree is undefined.
    """
    if t.size < 2:
        raise ValueError("leaf_removals needs a tree with at least 2 vertices")
    return _leaf_removals(t)


def _leaf_removals(t):
    out = []
    kids = t.children
    for i, child in enumerate(kids):
        rest = kids[:i] + kids[i + 1 :]
        if child.size == 1:
            out.append(RootedTree(rest))
        else:
            for smaller in _leaf_removals(child):
                out.append(RootedTree(rest + (smaller,)))
    return out


def monotone_count(t):
    """Number of vertex orderings that increase from the root toward the leaves.

    Equals |t|! divided by the tree factorial, always exactly.
    """
    return factorial(t.size) // tree_factorial(t)


def _merge_counts(a, b):
    # a[k], b[k]: strict surjective labeling counts of two independent vertex
    # sets; returns the counts for their disjoint union.  Sets A, B of k1, k2
    # classes cover [k] as: A any k1, B the other k - k1 and all but k - k2 of A.
    out = [0] * (len(a) + len(b) - 1)
    for k1, c1 in enumerate(a):
        if not c1:
            continue
        for k2, c2 in enumerate(b):
            if not c2:
                continue
            for k in range(max(k1, k2), k1 + k2 + 1):
                out[k] += c1 * c2 * comb(k, k1) * comb(k1, k - k2)
    return tuple(out)


@lru_cache(maxsize=None)
def _strict_counts(t):
    # counts[k] = surjections of the vertices of t onto {1..k} that strictly
    # increase along every root-to-leaf edge.  Children merge by convolving
    # their counts with the overlay multinomial; the root then takes a fresh
    # minimal class below everything, shifting ranks up by one.
    merged = (1,)
    for child in t.children:
        merged = _merge_counts(merged, _strict_counts(child))
    return (0,) + merged


def omega_k(t, k):
    """Number of rank-k labelings of ``t``: surjections onto {1..k} strictly
    increasing away from the root.  0 when no such labeling exists.
    """
    counts = _strict_counts(t)
    if 0 <= k < len(counts):
        return counts[k]
    return 0


@lru_cache(maxsize=None)
def omega(t):
    """Alternating sum of the rank-k labeling counts: sum of (-1)^(k+1)/k * omega_k.

    >>> omega(parse_tree("[[][]]"))
    Fraction(1, 6)
    """
    counts = _strict_counts(t)
    total = Fraction(0)
    for k in range(1, len(counts)):
        if counts[k]:
            total += Fraction((-1) ** (k + 1) * counts[k], k)
    return total


def omega_forest(f):
    """Product of omega over the trees of a forest; 1 for the empty forest."""
    total = Fraction(1)
    for t in f.trees:
        total *= omega(t)
    return total


@lru_cache(maxsize=None)
def bernoulli(n):
    """The n-th Bernoulli number, with bernoulli(1) == -1/2.

    Computed by the recurrence sum(C(n+1, k) * B_k for k <= n) == 0.
    """
    if n < 0:
        raise ValueError("bernoulli is defined for n >= 0")
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def trees_of_size(n):
    """All canonical rooted trees with exactly ``n`` vertices, 1 <= n <= 12,
    sorted by encoding."""
    if n < 1:
        raise ValueError("tree size must be a positive integer")
    _check_tree_size(n)
    if n == 1:
        return (RootedTree(),)
    out = [RootedTree(kids) for kids in _child_multisets(n - 1, "")]
    return tuple(sorted(out, key=lambda t: t.encoding))


def _child_multisets(total, min_encoding):
    # multisets of trees with sizes summing to `total`, listed as sequences
    # with non-decreasing encodings so each multiset appears exactly once
    if total == 0:
        return [()]
    out = []
    for size in range(1, total + 1):
        for t in trees_of_size(size):
            if t.encoding < min_encoding:
                continue
            for rest in _child_multisets(total - size, t.encoding):
                out.append((t,) + rest)
    return out


def _check_tree_size(n):
    if n > _MAX_TREE_SIZE:
        raise ValueError(f"tree size {n} exceeds the limit of {_MAX_TREE_SIZE} vertices")


def trees_up_to(n):
    """All canonical rooted trees with at most ``n`` <= 12 vertices, smallest first."""
    _check_tree_size(n)
    return [t for size in range(1, n + 1) for t in trees_of_size(size)]
