"""Exact-rational multilinear functionals on words and their pre-Lie calculus.

A ``Functional`` is a total table of exact rational values on all words of
length 1..max_order over a finite alphabet: the free-vector-space view in
which words are the multilinear basis.  On that space this module implements
the left pre-Lie product L_alpha(beta) (remove an inner non-empty factor of
the word, evaluate alpha on it and beta on what remains, with an overall
minus sign) as the first term of one series of iterated left products, the
sum over n >= 0 of c_n L^n(kappa).  Four choices of left factor and weights
give the product itself (c_n = [n = 1]), the Bernoulli-weighted fixed-point
expansion ``magnus``, its compositional inverse ``magnus_inverse``, and the
exponential of a left-multiplication operator ``exp_left``.

The series runs on the integer rows a ``Functional`` stores (see its
docstring).  A product fills a whole length m at once: for each inner
length k and cut position, the words w1 w2 w3 with |w2| = k read the left
row of length k and one slice of the right row of length m - k, so the sum
is slice arithmetic over the shorter outer part, with the lift to the
common denominator folded into the left row.  Length m reads only shorter
lengths, which are already final, so the series fills every power, and its
own left factor in ``magnus``, one length at a time.

Functionals are immutable and all operations are pure.  The module keeps
no cache; ``cumulants`` reads the same rows in place, and fills moments from
Boolean cumulants with this product kernel at cut position 0.
"""

import re
from fractions import Fraction
from itertools import chain, product as _cartesian
from math import factorial, gcd, lcm
from operator import add

from .trees import bernoulli

# the most words a table may hold; {a,b} at order 12 is 8,190 words
_MAX_WORDS = 100_000


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
    ``ValueError``, here and in ``scale``.

    The table is stored one length at a time: ``_rows[m]`` lists integer
    numerators over the one denominator ``_dens[m]``, in lowest terms, so
    equal functionals store equal rows.  A word of length m sits at its
    code, the word read in base q = len(alphabet) with the first letter most
    significant, which is its position among the words of length m in
    ``words()`` order.  Row 0 is a placeholder: the empty word is not in the
    domain.  Both kernels compute on these rows in place, and ``Fraction``
    values are built only when a value is read.
    """

    __slots__ = ("alphabet", "max_order", "_rows", "_dens")

    def __init__(self, alphabet, max_order, values=None):
        alphabet = tuple(alphabet)
        # letters are checked first: a list or a dict read from JSON is not
        # hashable, so the distinctness test below would raise TypeError
        for a in alphabet:
            if not isinstance(a, str) or not a or "," in a:
                raise ValueError(f"invalid letter {a!r}")
        if not alphabet or len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet must be a non-empty set of distinct letters")
        if isinstance(max_order, bool) or not isinstance(max_order, int) or max_order < 1:
            raise ValueError("max_order must be a positive integer")
        _check_domain_size(len(alphabet), max_order)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "max_order", max_order)
        table = [[0] * len(alphabet) ** m for m in range(max_order + 1)]
        for w, v in (values or {}).items():
            m, code = self._locate(w)
            table[m][code] = _exact(v)
        rows, dens = map(list, zip(*map(_lift, table)))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_dens", dens)

    def _with_rows(self, pairs):
        # trusted: a functional on self's space whose row of length m is the
        # m-th (numerators, denominator) pair, in lowest terms
        new = object.__new__(Functional)
        rows, dens = map(list, zip(*pairs))
        for name, v in zip(self.__slots__, (self.alphabet, self.max_order, rows, dens)):
            object.__setattr__(new, name, v)
        return new

    def __setattr__(self, name, value):
        raise AttributeError("Functional is immutable")

    def _locate(self, word):
        # the length and code of a word in the domain
        word = tuple(word)
        if 0 < len(word) <= self.max_order:
            code = 0
            try:
                for a in word:
                    code = code * len(self.alphabet) + self.alphabet.index(a)
                return len(word), code
            except ValueError:  # a letter outside the alphabet
                pass
        raise ValueError(f"word {word!r} is not in the table's domain")

    def value(self, word):
        """The stored value on ``word``; raises for words outside the domain."""
        m, code = self._locate(word)
        return Fraction(self._rows[m][code], self._dens[m])

    def words(self):
        """All words of the domain, shortest first."""
        return all_words(self.alphabet, self.max_order)

    def add(self, other):
        _require_same_space(self, other)
        pairs = []
        for a, da, b, db in zip(self._rows, self._dens, other._rows, other._dens):
            d, (fa, fb) = _common([da, db])
            pairs.append(_reduced([x * fa + y * fb for x, y in zip(a, b)], d))
        return self._with_rows(pairs)

    def negate(self):
        # a row in lowest terms stays so with its signs flipped
        return self._with_rows(([-v for v in row], d) for row, d in zip(self._rows, self._dens))

    def scale(self, c):
        c = _exact(c)
        return self._with_rows(
            _reduced([c.numerator * v for v in row], c.denominator * d)
            for row, d in zip(self._rows, self._dens)
        )

    __add__ = add
    __neg__ = negate

    def __sub__(self, other):
        return self.add(other.negate())

    def to_json(self):
        """JSON form with "p/q" value strings; zero entries are omitted."""
        values = (Fraction(v, d) for row, d in zip(self._rows[1:], self._dens[1:]) for v in row)
        return {
            "alphabet": list(self.alphabet),
            "max_order": self.max_order,
            "values": {word_text(w): str(v) for w, v in sorted(zip(self.words(), values)) if v},
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
        keys = {}  # the first key spelling each word: a second one is refused
        for k in raw:
            first = keys.setdefault(word_from_text(k), k)
            if first != k:
                raise ValueError(f"keys {first!r} and {k!r} name the same word")
        return cls(alphabet, max_order, {w: _value_from_json(raw[k]) for w, k in keys.items()})

    def __eq__(self, other):
        # rows in lowest terms are equal exactly when the values are
        return (
            isinstance(other, Functional)
            and self.alphabet == other.alphabet
            and self.max_order == other.max_order
            and self._dens == other._dens
            and self._rows == other._rows
        )

    def __repr__(self):
        nonzero = sum(map(bool, chain.from_iterable(self._rows)))
        return (
            f"Functional(alphabet={self.alphabet!r}, max_order={self.max_order},"
            f" nonzero={nonzero})"
        )


def _check_domain_size(q, n):
    # sum of q^m over m <= n, counted only until it passes the limit, so a
    # huge max_order is refused before anything is allocated
    size, power = 0, 1
    for _ in range(n):
        power *= q
        size += power
        if size > _MAX_WORDS:
            raise ValueError(
                f"the domain of {q}-letter words up to order {n} exceeds"
                f" the limit of {_MAX_WORDS} words"
            )


def _exact(v):
    # a float or a bool is not an exact rational value: refuse it rather than
    # store its binary expansion, or read True and False as 1 and 0
    if isinstance(v, (float, bool)):
        raise ValueError(f"value {v!r} is a {type(v).__name__}, not an exact rational")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"value {v!r} has a zero denominator") from None


_RATIONAL_TEXT = re.compile(r"\s*[+-]?\d+(/\d+)?\s*")


def _value_from_json(v):
    # only integers and "p/q" strings are exact; a JSON float or a bool is not
    # a rational value and is refused rather than converted (by _exact)
    if isinstance(v, int) or isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v):
        return _exact(v)
    raise ValueError(f'value {v!r} is neither an integer nor a "p/q" string')


def _require_same_space(a, b):
    if a.alphabet != b.alphabet or a.max_order != b.max_order:
        raise ValueError("functionals live on different alphabets or truncation orders")


def _lift(values):
    # one length's rational values as integer numerators over the lcm of
    # their denominators, which is in lowest terms already
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _reduced(row, den):
    # a row of numerators over den, in lowest terms; an all-zero row is
    # over 1
    g = gcd(den, *row)
    return ([v // g for v in row], den // g) if g > 1 else (row, den)


def _common(dens):
    # the lcm of some denominators and the factor lifting each one to it
    den = lcm(*dens)
    return den, [den // d for d in dens]


def _product_at(left, right, m, q, factors, positions=None):
    # the sum over w = w1 w2 w3 of alpha(w2) beta(w1 w3) for every word w of
    # length m at once, on integer numerators, with |w1| in positions(k) at
    # inner length k = |w2|, by default 1..m-k-1: the pre-Lie product's cuts.
    # left[k] and right[k] are the rows of length k, indexed by word code;
    # the sum at inner length k is multiplied by factors[k-1], its lift to
    # the common denominator and its sign, and inner lengths past the end of
    # `factors` are not read.  Returns the row of length m.
    #
    # A cut with prefix p of length i, inner x of length k and suffix s of
    # length a = m - i - k has code (p q^k + x) q^a + s, and its outer part
    # p s has code p q^a + s.  For fixed i, k and x, the outer parts run over
    # one slice of right[m - k]: contiguous over s for each p when a >= i,
    # strided over p for each s when a < i, so the loop runs over the shorter
    # of the two outer parts and every step adds a whole slice.
    out = [0] * q ** m
    for k, factor in enumerate(factors, 1):
        # the factor folded into the left row, zeros dropped
        inner = [(x, factor * v) for x, v in enumerate(left[k]) if v]
        if not inner:
            continue
        outer = right[m - k]
        for i in range(1, m - k) if positions is None else positions(k):
            qa = q ** (m - i - k)
            step = q ** k * qa
            if qa >= q ** i:
                for p in range(q ** i):
                    part = outer[p * qa:(p + 1) * qa]
                    if any(part):
                        base = p * step
                        for x, lx in inner:
                            at = base + x * qa
                            out[at:at + qa] = map(add, out[at:at + qa], map(lx.__mul__, part))
            else:
                for s in range(qa):
                    part = outer[s::qa]
                    if any(part):
                        for x, lx in inner:
                            at = x * qa + s
                            out[at::step] = map(add, out[at::step], map(lx.__mul__, part))
    return out


def prelie_product(alpha, beta):
    """The left pre-Lie product of two functionals on the same space: the
    first term of the series, L_alpha(beta).

    Vanishes on words of length < 3.
    """
    _require_same_space(alpha, beta)
    return _series(alpha, beta, lambda n: int(n == 1))


def _series(left, kappa, coeff):
    # the sum over n >= 0 of coeff(n) times the n-fold left product
    # L_left^n(kappa), with L^0(kappa) = kappa, filled one word length at a
    # time.  Each product cuts a non-empty inner factor out of a word whose
    # two outer parts are non-empty, so L^n vanishes on words shorter than
    # n + 2: length m needs n <= m-2 only, and L^n at length m reads
    # L^(n-1) on lengths >= n + 1, that is inner factors of length
    # <= m - n - 1.  Length m reads every table only on shorter lengths,
    # which are already final, so each length is filled as whole rows.  No
    # power past the last nonzero weight is computed.  With left=None the
    # left factor is the series itself; length m reads it on lengths <= m-2.
    #
    # Every table is read as integer rows over one denominator per length:
    # dens[n][m] for L^n, so dens[0] is kappa's own.  The output at length
    # m is over the lcm of den(coeff(n)) * dens[n][m] for the nonzero
    # weights, reduced once.  No product reads the top length, so no powers
    # are kept there.
    n_max = kappa.max_order
    q = len(kappa.alphabet)
    coeffs = [coeff(n) for n in range(n_max)]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    out_rows, out_dens = [[0]], [1]
    lrows, lden = (out_rows, out_dens) if left is None else (left._rows, left._dens)
    # powers[n][m]: the row of L^n(kappa) at length m, below the top length
    powers = [kappa._rows] + [[None] * n_max for _ in coeffs[1:]]
    dens = [kappa._dens] + [[0] * n_max for _ in coeffs[1:]]
    for m in range(1, n_max + 1):
        top = m == n_max
        # L^n at length m for n = 1..m-2; at the top length it is not kept,
        # so only the products with a nonzero weight are needed there, and
        # each is added to the output and dropped before the next is filled
        steps = [(0, dens[0][m], None)] + [
            (n, *_common([lden[k] * dens[n - 1][m - k] for k in range(1, m - n)]))
            for n in range(1, min(m - 1, len(coeffs)))
            if not top or coeffs[n]
        ]
        out_den = lcm(*(coeffs[n].denominator * den for n, den, _ in steps if coeffs[n]))
        total = None
        for n, den, factors in steps:
            # the product's minus sign rides on its factors
            power = (
                powers[0][m] if n == 0
                else _product_at(lrows, powers[n - 1], m, q, [-f for f in factors])
            )
            if n and not top:
                dens[n][m] = den
                powers[n][m] = power
            # L^n(w) enters the output's numerator times coeff(n) * out_den / den
            weight = coeffs[n].numerator * (out_den // (coeffs[n].denominator * den))
            if weight:
                terms = map(weight.__mul__, power)
                total = list(terms) if total is None else list(map(add, total, terms))
        row, den = _reduced(total or [0] * q ** m, out_den)
        out_rows.append(row)
        out_dens.append(den)
    return kappa._with_rows(zip(out_rows, out_dens))


def magnus(kappa):
    """The Bernoulli-weighted fixed-point expansion of ``kappa``.

    Solves theta = sum over n >= 0 of B_n/n! applied as the n-fold left
    multiplication of theta on kappa.  Applied to free cumulants this
    produces the monotone cumulants; the closed form over irreducible
    non-crossing partitions lives in the ``cumulants`` module and must agree
    with it.
    """
    return _series(None, kappa, lambda n: bernoulli(n) / factorial(n))


def magnus_inverse(kappa):
    """Compositional inverse of ``magnus``: kappa plus the 1/(n+1)!-weighted
    iterated left products of kappa on itself."""
    return _series(kappa, kappa, lambda n: Fraction(1, factorial(n + 1)))


def exp_left(theta, kappa, sign=1):
    """The exponential series of left multiplication by ``theta`` on ``kappa``.

    With sign -1 this is the inverse exponential.  The sign is the integer
    +1 or -1; a bool or a float raises ``ValueError``, as values do.
    """
    if isinstance(sign, (bool, float)) or sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    sign = 1 if sign == 1 else -1
    _require_same_space(theta, kappa)
    return _series(theta, kappa, lambda n: Fraction(sign ** n, factorial(n)))
