"""A golden digest of the public outputs.

One SHA-256 over the JSON of every conversion direction on three spaces and
of the pre-Lie series on one, with inputs drawn here from
``random.Random`` and read through public names only.  Every output is
exact, so a change to how any of them is computed must leave the digest
as it is; a changed digest means a changed output.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import product

from nccumulants import CumulantFamily, Functional, convert, exp_left, magnus, magnus_inverse
from nccumulants.cumulants import KINDS

GOLDEN = "d787c855c77a9bc3df27b5b9d0a54b5b74186ad2c82ad2c1c5623bca5122b623"


def _random_functional(rng, alphabet, order):
    # numerators in [-9, 9] over denominators in {1, 2, 3, 5}, every word
    values = {
        w: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        for m in range(1, order + 1)
        for w in product(alphabet, repeat=m)
    }
    return Functional(alphabet, order, values)


def _outputs():
    rng = random.Random(2020)
    for alphabet, order in ((("a", "b"), 6), (("a", "b", "c"), 4), (("a",), 11)):
        src = _random_functional(rng, alphabet, order)
        for x, y in product(KINDS, repeat=2):
            if x != y:
                yield convert(CumulantFamily(x, src), y).to_json()
    kappa, theta = (_random_functional(rng, ("a", "b"), 5) for _ in range(2))
    yield from (f.to_json() for f in (magnus(kappa), magnus_inverse(kappa)))
    yield from (exp_left(theta, kappa, sign).to_json() for sign in (1, -1))


def test_public_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for obj in _outputs():
        digest.update(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == GOLDEN
