"""Property tests for the parse/print and conversion round trips.

Every test is derandomized, so a run draws the same examples each time and
keeps no example database.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from nccumulants import partitions
from nccumulants.cumulants import CUMULANT_KINDS, CumulantFamily, convert
from nccumulants.partitions import NCPartition
from nccumulants.prelie import Functional, all_words

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_values = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def _functionals(draw, alphabets, max_orders):
    alphabet = draw(alphabets)
    max_order = draw(max_orders)
    words = list(all_words(alphabet, max_order))
    values = draw(st.dictionaries(st.sampled_from(words), _values, max_size=len(words)))
    return Functional(alphabet, max_order, values)


# letters that print and parse back unchanged: no comma, no whitespace
_letters = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=3)
_any_functional = _functionals(
    st.lists(_letters, min_size=1, max_size=3, unique=True), st.integers(1, 3)
)


@st.composite
def _nc_partitions(draw):
    # a non-crossing partition of [n], moved onto any increasing labels: an
    # order-preserving relabeling keeps it non-crossing
    n = draw(st.integers(1, 7))
    blocks = draw(st.sampled_from(partitions.enumerate_nc(n))).blocks
    labels = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True)))
    return NCPartition([labels[i - 1] for i in b] for b in blocks)


@_SETTINGS
@given(_any_functional)
def test_functional_json_round_trip(f):
    assert Functional.from_json(f.to_json()) == f


@_SETTINGS
@given(_nc_partitions())
def test_partition_text_round_trip(p):
    assert NCPartition.from_text(p.text()) == p


@_SETTINGS
@given(
    _functionals(st.just(("a", "b")), st.integers(1, 4)),
    st.sampled_from(CUMULANT_KINDS),
)
def test_moment_round_trip(phi, kind):
    moments = CumulantFamily("moment", phi)
    assert convert(convert(moments, kind), "moment") == moments
