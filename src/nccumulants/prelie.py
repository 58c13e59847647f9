"""Exact-rational multilinear functionals on words and their pre-Lie calculus.

A ``Functional`` is a total table of Fraction values on all words of length
1..max_order over a finite alphabet: the free-vector-space view in which
words are the multilinear basis.  On that space this module implements the
left pre-Lie product (remove an inner non-empty factor of the word, evaluate
the left argument on it and the right argument on what remains, with an
overall minus sign), iterated left and right products, the effective degree
of formal bracketings, the Bernoulli-weighted fixed-point expansion
``magnus`` and its compositional inverse ``magnus_inverse``, and the
exponential of a left-multiplication operator.

Functionals are immutable after construction and all operations are pure;
within ``magnus`` the strata are sequentially dependent by word length but
callers observe a pure function.
"""

import re
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from math import factorial

from .trees import bernoulli

_ZERO = Fraction(0)


class TruncationError(ValueError):
    """Raised when a requested evaluation exceeds the table's max word length."""


def all_words(alphabet, max_len):
    """Yield every word of length 1..max_len, shortest first."""
    alphabet = tuple(alphabet)
    for m in range(1, max_len + 1):
        yield from _cartesian(alphabet, repeat=m)


def word_from_text(s):
    """Parse the comma-separated word form, e.g. "a,b,a" -> ("a", "b", "a")."""
    letters = tuple(part.strip() for part in s.split(","))
    if not letters or any(not x for x in letters):
        raise ValueError(f"malformed word {s!r}")
    return letters


def word_text(w):
    return ",".join(w)


class Functional:
    """A linear form on words of length <= max_order, stored as a dense table.

    Absent entries do not exist: the table is total, and equality compares
    total tables.  Values are exact rationals: anything ``Fraction`` reads
    exactly (ints, Fractions, "p/q" strings); a float or a bool raises
    ``ValueError``, here and in ``map_values`` and ``scale``.
    """

    __slots__ = ("alphabet", "max_order", "_table")

    def __init__(self, alphabet, max_order, values=None):
        alphabet = tuple(alphabet)
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be a non-empty set of distinct letters")
        for a in alphabet:
            if not isinstance(a, str) or not a or "," in a:
                raise ValueError(f"invalid letter {a!r}")
        if isinstance(max_order, bool) or not isinstance(max_order, int) or max_order < 1:
            raise ValueError("max_order must be a positive integer")
        table = {w: _ZERO for w in all_words(alphabet, max_order)}
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "_table", table)
        if values:
            for w, v in values.items():
                w = tuple(w)
                if w not in table:
                    raise ValueError(f"word {w!r} is not in the table's domain")
                table[w] = _exact(v)

    @classmethod
    def _from_table(cls, alphabet, max_order, table):
        # trusted: `table` must be total on all words of length <= max_order
        self = object.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "_table", table)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    def value(self, word):
        """The stored value on ``word``; raises for words outside the domain."""
        try:
            return self._table[tuple(word)]
        except KeyError:
            raise ValueError(f"word {tuple(word)!r} is not in the table's domain") from None

    __getitem__ = value

    def words(self):
        """All words of the domain, shortest first."""
        return all_words(self.alphabet, self.max_order)

    def words_of_length(self, m):
        return _cartesian(self.alphabet, repeat=m)

    def map_values(self, fn):
        table = {w: _exact(fn(v)) for w, v in self._table.items()}
        return Functional._from_table(self.alphabet, self.max_order, table)

    def add(self, other):
        _require_same_space(self, other)
        table = {w: v + other._table[w] for w, v in self._table.items()}
        return Functional._from_table(self.alphabet, self.max_order, table)

    def negate(self):
        return self.map_values(lambda v: -v)

    def scale(self, c):
        c = _exact(c)
        return self.map_values(lambda v: c * v)

    __add__ = add

    def __sub__(self, other):
        return self.add(other.negate())

    def __neg__(self):
        return self.negate()

    def is_zero(self):
        return all(not v for v in self._table.values())

    def to_json(self):
        """JSON form with "p/q" value strings; zero entries are omitted."""
        return {
            "alphabet": list(self.alphabet),
            "max_order": self.max_order,
            "values": {
                word_text(w): str(v) for w, v in sorted(self._table.items()) if v
            },
        }

    @classmethod
    def from_json(cls, obj):
        """Load the JSON form; omitted words read as zero."""
        try:
            alphabet = obj["alphabet"]
            max_order = obj["max_order"]
            raw = obj.get("values", {})
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed functional object: {exc}") from None
        if not isinstance(alphabet, list):
            raise ValueError(f"alphabet must be a list of letters, got {alphabet!r}")
        if not isinstance(raw, dict):
            raise ValueError("values must be an object mapping words to values")
        values = {word_from_text(k): _value_from_json(v) for k, v in raw.items()}
        return cls(alphabet, max_order, values)

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and self.alphabet == other.alphabet
            and self.max_order == other.max_order
            and self._table == other._table
        )

    def __repr__(self):
        nonzero = sum(1 for v in self._table.values() if v)
        return (
            f"Functional(alphabet={self.alphabet!r}, max_order={self.max_order},"
            f" nonzero={nonzero})"
        )


def _exact(v):
    # a float or a bool is not an exact rational value: refuse it rather than
    # store its binary expansion, or read True and False as 1 and 0
    if isinstance(v, (float, bool)):
        raise ValueError(f"value {v!r} is a {type(v).__name__}, not an exact rational")
    return Fraction(v)


_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _value_from_json(v):
    # only integers and "p/q" strings are exact; a JSON float or a bool is not
    # a rational value and is refused rather than converted
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    if isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"value {v!r} has a zero denominator") from None
    raise ValueError(f'value {v!r} is neither an integer nor a "p/q" string')


def _require_same_space(a, b):
    if a.alphabet != b.alphabet or a.max_order != b.max_order:
        raise ValueError("functionals live on different alphabets or truncation orders")


def eval_blocks(alpha, word, blocks):
    """Product of ``alpha`` over the subwords cut out by 1-based index blocks.

    ``blocks`` must partition {1..len(word)}; letters inside a block are taken
    in increasing index order.
    """
    word = tuple(word)
    n = len(word)
    covered = sorted(x for b in blocks for x in b)
    if covered != list(range(1, n + 1)):
        raise ValueError("blocks must partition the word's index set")
    result = Fraction(1)
    for b in blocks:
        idx = sorted(b)
        if len(idx) > alpha.max_order:
            raise TruncationError(
                f"block of size {len(idx)} exceeds max_order {alpha.max_order}"
            )
        result *= alpha.value(tuple(word[i - 1] for i in idx))
    return result


def _product_at(alpha_table, beta_table, w):
    # (alpha |> beta)(w) = - sum over w = w1 w2 w3, all parts non-empty,
    # of beta(w1 w3) alpha(w2)
    m = len(w)
    total = _ZERO
    for i in range(1, m - 1):
        left = w[:i]
        for j in range(i + 1, m):
            inner = alpha_table.get(w[i:j], _ZERO)
            if inner:
                outer = beta_table.get(left + w[j:], _ZERO)
                if outer:
                    total += outer * inner
    return -total


def prelie_product(alpha, beta):
    """The left pre-Lie product of two functionals on the same space.

    Vanishes on words of length < 3.
    """
    _require_same_space(alpha, beta)
    at, bt = alpha._table, beta._table
    table = {w: _product_at(at, bt, w) for w in alpha.words()}
    return Functional._from_table(alpha.alphabet, alpha.max_order, table)


def left_power(alpha, beta, n):
    """n-fold left multiplication: alpha |> (alpha |> (... |> beta))."""
    if n < 0:
        raise ValueError("n must be non-negative")
    result = beta
    for _ in range(n):
        result = prelie_product(alpha, result)
    return result


def right_power(alpha, beta, n):
    """n-fold right multiplication: ((beta |> alpha) |> alpha) ... |> alpha."""
    if n < 0:
        raise ValueError("n must be non-negative")
    result = beta
    for _ in range(n):
        result = prelie_product(result, alpha)
    return result


class PreLieMonomial:
    """A formal bracketing of functionals under the pre-Lie product.

    Tracks the effective degree: the smallest word length on which the
    bracketing can evaluate to something nonzero.
    """

    __slots__ = ("left", "right", "leaf_value")

    def __init__(self, left=None, right=None, leaf_value=None):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "leaf_value", leaf_value)

    def __setattr__(self, name, value):
        raise AttributeError("PreLieMonomial is immutable")

    @classmethod
    def leaf(cls, functional):
        return cls(leaf_value=functional)

    @classmethod
    def product(cls, left, right):
        return cls(left=left, right=right)

    @property
    def is_leaf(self):
        return self.left is None

    def effective_degree(self):
        if self.is_leaf:
            return 1
        return self.left.effective_degree() + max(2, self.right.effective_degree())

    def evaluate(self):
        """Evaluate the bracketing to a Functional."""
        if self.is_leaf:
            if not isinstance(self.leaf_value, Functional):
                raise ValueError("leaf does not reference a Functional")
            return self.leaf_value
        return prelie_product(self.left.evaluate(), self.right.evaluate())


def effective_degree(monomial):
    """Minimal word length on which ``monomial`` can be nonzero.

    Leaves have degree 1; a product adds the left degree and the right degree
    clamped below by 2, so every evaluation vanishes on shorter words.
    """
    return monomial.effective_degree()


@lru_cache(maxsize=None)
def _bernoulli_over_factorial(n):
    return bernoulli(n) / factorial(n)


def magnus(kappa):
    """The Bernoulli-weighted fixed-point expansion of ``kappa``.

    Solves theta = sum over n >= 0 of B_n/n! applied as the n-fold left
    multiplication of theta on kappa.  The value on a word of length m only
    involves theta on strictly shorter words (each product raises the
    effective degree), so the table is filled stratum by stratum and the
    series is cut exactly where the effective degree exceeds max_order.

    Applied to free cumulants this produces the monotone cumulants; the
    closed form over irreducible non-crossing partitions lives in the
    ``cumulants`` module and must agree with it.
    """
    n_max = kappa.max_order
    kt = kappa._table
    theta = {}
    iters = [kt]  # iters[n]: n-fold left product of theta on kappa, filled lazily
    for m in range(1, n_max + 1):
        stratum = [w for w in kappa.words_of_length(m)]
        for n in range(1, m - 1):
            if len(iters) <= n:
                iters.append({})
            prev, cur = iters[n - 1], iters[n]
            for w in stratum:
                # reads theta on length <= m-2 and iters[n-1] on length <= m-1,
                # all already final; .get covers the identically-zero entries
                # below the effective degree n+1 of iters[n-1]
                cur[w] = _product_at(theta, prev, w)
        for w in stratum:
            acc = kt[w]
            for n in range(1, m - 1):
                coeff = _bernoulli_over_factorial(n)
                if coeff:
                    acc += coeff * iters[n][w]
            theta[w] = acc
    return Functional._from_table(kappa.alphabet, kappa.max_order, theta)


def _left_series(left, kappa, coeff):
    # kappa plus coeff(n) times the n-fold left product of `left` on kappa,
    # summed until the effective degree n + 1 exceeds max_order
    acc = dict(kappa._table)
    cur = kappa
    for n in range(1, max(0, kappa.max_order - 1)):
        cur = prelie_product(left, cur)
        c = coeff(n)
        for w, v in cur._table.items():
            if v:
                acc[w] += c * v
    return Functional._from_table(kappa.alphabet, kappa.max_order, acc)


def magnus_inverse(kappa):
    """Compositional inverse of ``magnus``: kappa plus the 1/(n+1)!-weighted
    iterated left products of kappa on itself, truncated exactly by the
    effective degree."""
    return _left_series(kappa, kappa, lambda n: Fraction(1, factorial(n + 1)))


def exp_left(theta, kappa, sign=1):
    """The exponential series of left multiplication by ``theta`` on ``kappa``.

    With sign -1 this is the inverse exponential.  Truncated exactly by the
    effective degree.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _require_same_space(theta, kappa)
    return _left_series(theta, kappa, lambda n: Fraction(sign ** n, factorial(n)))
