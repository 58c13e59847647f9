"""Property tests for the parse/print and conversion round trips, and for
the refusal of malformed envelopes.

Every test is derandomized, so a run draws the same examples each time and
keeps no example database.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nccumulants import partitions
from nccumulants.cumulants import CUMULANT_KINDS, KINDS, CumulantFamily, convert
from nccumulants.partitions import NCPartition
from nccumulants.prelie import Functional, prelie_product

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

_values = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def _drawn_functionals(draw, alphabets, max_orders):
    # each word is drawn letter by letter, after its length, which is drawn
    # with weight q^m: every word is as likely as any other, and a word
    # shrinks letter by letter, not toward the start of a list of all words
    alphabet = draw(alphabets)
    max_order = draw(max_orders)
    lengths = [m for m in range(1, max_order + 1) for _ in range(len(alphabet) ** m)]
    words = st.sampled_from(lengths).flatmap(
        lambda m: st.lists(st.sampled_from(alphabet), min_size=m, max_size=m).map(tuple)
    )
    values = draw(st.dictionaries(words, _values, max_size=len(lengths)))
    return Functional(alphabet, max_order, values), values


def _functionals(alphabets, max_orders):
    return _drawn_functionals(alphabets, max_orders).map(lambda drawn: drawn[0])


# letters that print and parse back unchanged: no comma, no whitespace
_letters = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=3)
_any_functional = _drawn_functionals(
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
def test_functional_json_round_trip(drawn):
    # every word reads back the value drawn for it, so the word-to-code
    # mapping is checked on 1-3 letters, and omitted words read as zero
    f, values = drawn
    assert Functional.from_json(f.to_json()) == f
    for w in f.words():
        assert f.value(w) == values.get(w, 0)


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


_CUMULANT_PAIRS = [(x, y) for x in CUMULANT_KINDS for y in CUMULANT_KINDS if x != y]


@_SETTINGS
@given(
    _functionals(st.just(("a", "b")), st.integers(1, 4)),
    st.sampled_from(_CUMULANT_PAIRS),
)
def test_cumulant_round_trip(x, direction):
    family = CumulantFamily(direction[0], x)
    assert convert(convert(family, direction[1]), direction[0]) == family


@st.composite
def _sparse_pairs(draw):
    # two functionals on one space of 1-3 letters up to order 6, each with at
    # most six nonzero words; words are drawn letter by letter, so long
    # words are as likely as short ones
    alphabet = "abc"[: draw(st.integers(1, 3))]
    max_order = draw(st.integers(1, 6))
    words = st.lists(st.sampled_from(alphabet), min_size=1, max_size=max_order).map(tuple)
    alpha, beta = (
        Functional(alphabet, max_order, draw(st.dictionaries(words, _values, max_size=6)))
        for _ in range(2)
    )
    return alpha, beta


@_SETTINGS
@given(_sparse_pairs())
def test_prelie_product_is_the_cut_sum(pair):
    # (alpha |> beta)(w) = - sum over w = w1 w2 w3, all parts non-empty, of
    # alpha(w2) beta(w1 w3), written cut by cut
    alpha, beta = pair
    product = prelie_product(alpha, beta)
    for w in alpha.words():
        m = len(w)
        cuts = [(w[i:j], w[:i] + w[j:]) for i in range(1, m - 1) for j in range(i + 1, m)]
        assert product.value(w) == -sum(alpha.value(x) * beta.value(y) for x, y in cuts)


# any value json.loads can return
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)


# one defect each: every envelope these build is refused
_DEFECTS = {
    "envelope": _json.filter(lambda v: not isinstance(v, dict)),
    "kind": _json.filter(lambda v: v not in KINDS),
    "functional": _json.filter(lambda v: not isinstance(v, dict)),
    "alphabet": _json.filter(lambda v: not isinstance(v, list))
    | st.lists(_json.filter(lambda v: not isinstance(v, str)), min_size=1, max_size=3)
    # a list or an object as a letter is not even hashable
    | st.lists(
        st.lists(_json, max_size=2) | st.dictionaries(st.text(max_size=2), _json, max_size=2),
        min_size=1,
        max_size=2,
    )
    | st.sampled_from([[], ["a", "a"], [""], ["a,b"]]),
    "max_order": _json.filter(lambda v: type(v) is not int) | st.integers(max_value=0),
    # the domain check counts words before allocating any
    "oversized": st.integers(100_001, 10**30),
    "values": _json.filter(lambda v: not isinstance(v, dict))
    | st.dictionaries(st.sampled_from(["", "a,,b", "c", "a,b,a,b,a", " "]), _json, min_size=1)
    | st.dictionaries(
        st.sampled_from(["a", "b,a"]),
        st.floats() | st.booleans() | st.none() | st.sampled_from(["1/0", "x", "1.5", "2/"]),
        min_size=1,
    ),
}


@st.composite
def _malformed_envelopes(draw):
    defect = draw(st.sampled_from(sorted(_DEFECTS)))
    bad = draw(_DEFECTS[defect])
    if defect == "envelope":
        return bad
    functional = {"alphabet": ["a", "b"], "max_order": 4, "values": {"a,b": "1/2"}}
    envelope = {"kind": draw(st.sampled_from(KINDS)), "functional": functional}
    if defect in ("kind", "functional"):
        envelope[defect] = bad
    elif defect == "oversized":
        functional["max_order"] = bad
    else:
        functional[defect] = bad
    for key in draw(st.sets(st.sampled_from(["kind", "functional"]), max_size=1)):
        del envelope[key]
    return envelope


@settings(_SETTINGS, max_examples=200)
@given(_malformed_envelopes())
def test_malformed_envelopes_refused(envelope):
    with pytest.raises(ValueError):
        CumulantFamily.from_json(envelope)
