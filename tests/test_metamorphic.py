"""Metamorphic relations that every conversion satisfies.

Each relation transforms the input, converts, and compares with the
transformed output; none of them reads a partition table, so they check the
conversions independently of how the sums are computed.

- Reversal: w -> x(reverse w) commutes with every conversion, since
  non-crossing, interval and monotone partitions are closed under reversal.
- Dilation: x(w) -> t^|w| x(w) commutes with every conversion, since every
  term on a word of length m is a product over blocks whose lengths sum to m.
- Letter pullback (naturality): for a letter map f, converting x o f gives
  the conversion of x, composed with f.
"""

from fractions import Fraction

import pytest

from nccumulants.cumulants import KINDS, CumulantFamily, convert
from nccumulants.oracle import random_functional
from nccumulants.prelie import Functional

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
