"""Metamorphic relations that every conversion and pre-Lie series satisfies.

Each relation transforms the input, converts, and compares with the
transformed output; none of them reads a partition table, so they check the
conversions independently of how the sums are computed.

- Reversal: w -> x(reverse w) commutes with every conversion, since
  non-crossing, interval and monotone partitions are closed under reversal.
- Dilation: x(w) -> t^|w| x(w) commutes with every conversion, since every
  term on a word of length m is a product over blocks whose lengths sum to m.
- Letter pullback (naturality): for a letter map f, converting x o f gives
  the conversion of x, composed with f.

The pre-Lie product, ``magnus``, ``magnus_inverse`` and ``exp_left`` commute
with the same three maps applied to every argument: each term of the product
cuts a factor out of a word and splits its length, and reversal or a letter
map carries the cut to a cut of the image.
"""

from fractions import Fraction

import pytest

from nccumulants.cumulants import KINDS, CumulantFamily, convert
from nccumulants.oracle import random_functional
from nccumulants.prelie import Functional, exp_left, magnus, magnus_inverse, prelie_product

DIRECTIONS = [(x, y) for x in KINDS for y in KINDS if x != y]
SPACES = [(("a", "b"), 5), (("a",), 9)]
T = Fraction(2, 3)


def _convert(direction, f):
    return convert(CumulantFamily(direction[0], f), direction[1]).data


def _reversed(f):
    return Functional(f.alphabet, f.max_order, {w: f.value(w[::-1]) for w in f.words()})


def _dilated(f, t):
    return Functional(f.alphabet, f.max_order, {w: t ** len(w) * f.value(w) for w in f.words()})


def _pulled_back(f, letter_map):
    alphabet = tuple(letter_map)
    return Functional(
        alphabet,
        f.max_order,
        {
            w: f.value(tuple(letter_map[a] for a in w))
            for w in Functional(alphabet, f.max_order).words()
        },
    )


@pytest.mark.parametrize("direction", DIRECTIONS, ids="-".join)
@pytest.mark.parametrize("alphabet, order", SPACES, ids=["ab5", "a9"])
class TestMetamorphic:
    def test_reversal(self, direction, alphabet, order):
        x = random_functional(alphabet, order, 300)
        assert _convert(direction, _reversed(x)) == _reversed(_convert(direction, x))

    def test_dilation(self, direction, alphabet, order):
        x = random_functional(alphabet, order, 301)
        assert _convert(direction, _dilated(x, T)) == _dilated(_convert(direction, x), T)


@pytest.mark.parametrize("direction", DIRECTIONS, ids="-".join)
def test_letter_pullback(direction):
    letter_map = {"a": "a", "b": "a", "c": "b"}
    x = random_functional(("a", "b"), 4, 302)
    assert _convert(direction, _pulled_back(x, letter_map)) == _pulled_back(
        _convert(direction, x), letter_map
    )


PRELIE = {
    "product": (prelie_product, 2),
    "magnus": (magnus, 1),
    "magnus_inverse": (magnus_inverse, 1),
    "exp_left+": (lambda theta, kappa: exp_left(theta, kappa, 1), 2),
    "exp_left-": (lambda theta, kappa: exp_left(theta, kappa, -1), 2),
}
PRELIE_SPACES = [(("a", "b"), 6), (("a",), 10)]


def _commutes(name, alphabet, order, seed, transform):
    # fn(transform(x), ...) == transform(fn(x, ...)) on random arguments
    fn, arity = PRELIE[name]
    xs = [random_functional(alphabet, order, seed + i) for i in range(arity)]
    return fn(*map(transform, xs)) == transform(fn(*xs))


@pytest.mark.parametrize("name", PRELIE)
@pytest.mark.parametrize("alphabet, order", PRELIE_SPACES, ids=["ab6", "a10"])
class TestPreLieMetamorphic:
    def test_reversal(self, name, alphabet, order):
        assert _commutes(name, alphabet, order, 310, _reversed)

    def test_dilation(self, name, alphabet, order):
        assert _commutes(name, alphabet, order, 320, lambda f: _dilated(f, T))


@pytest.mark.parametrize("name", PRELIE)
def test_prelie_letter_pullback(name):
    letter_map = {"a": "a", "b": "a", "c": "b"}
    assert _commutes(name, ("a", "b"), 6, 330, lambda f: _pulled_back(f, letter_map))
