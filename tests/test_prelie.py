from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod

import pytest

from nccumulants import partitions
from nccumulants import prelie as prelie_module
from nccumulants.cumulants import KINDS, CumulantFamily, convert
from nccumulants.oracle import random_functional
from nccumulants.prelie import (
    Functional,
    all_words,
    exp_left,
    magnus,
    magnus_inverse,
    prelie_product,
    word_from_text,
    word_text,
)

AB = ("a", "b")


def _mapped(f, fn):
    # the functional with fn applied to every value of f
    return Functional(f.alphabet, f.max_order, {w: fn(f.value(w)) for w in f.words()})


def _sub(f, w, block):
    # value of f on the subword cut out by a 1-based block
    return f.value(tuple(w[i - 1] for i in block))


def _integer_tables(fs):
    # the common denominator d of the functionals fs, and each one's values
    # as integer numerators over d
    tables = [{w: f.value(w) for w in f.words()} for f in fs]
    d = lcm(*(v.denominator for t in tables for v in t.values()))
    return d, [{w: v.numerator * (d // v.denominator) for w, v in t.items()} for t in tables]


def _block_values(nums, w, keys):
    # the numerator of factor i on the subword of w cut out by a 1-based
    # block, once for each (i, block) in keys
    return {(i, b): nums[i][tuple([w[j - 1] for j in b])] for i, b in keys}


class TestFunctional:
    def test_dense_zero_table(self):
        f = Functional(AB, 2)
        assert f.value(("a",)) == 0
        assert f.value(("b", "a")) == 0
        assert sum(1 for _ in f.words()) == 6

    def test_values_applied(self):
        f = Functional(("a",), 3, {("a", "a"): "3/2"})
        assert f.value(("a", "a")) == Fraction(3, 2)
        assert f.value(("a",)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Functional((), 2)
        with pytest.raises(ValueError):
            Functional(("a", "a"), 2)
        with pytest.raises(ValueError):
            Functional(("a,b",), 2)
        with pytest.raises(ValueError):
            Functional(AB, 0)
        with pytest.raises(ValueError):
            Functional(AB, 2, {("a", "a", "a"): 1})
        with pytest.raises(ValueError):
            Functional(AB, 2, {("c",): 1})
        with pytest.raises(ValueError, match="not in the table's domain"):
            Functional(AB, 2, {(): 1})

    def test_domain_size_limit(self):
        # the size is checked before the table is built, so the refusal is
        # immediate however large the requested order
        assert sum(1 for _ in Functional(AB, 12).words()) == 8190
        # {a} at order 100000 is exactly the limit
        assert Functional(("a",), 100_000).max_order == 100_000
        with pytest.raises(ValueError, match="limit of 100000 words"):
            Functional(("a",), 100_001)
        for alphabet, order in ((AB, 64), (AB, 16), (("a",), 10**9)):
            with pytest.raises(ValueError, match="limit of 100000 words"):
                Functional(alphabet, order)

    @pytest.mark.parametrize(
        "bad", [0.1, 0.5, 2.0, -0.0, float("inf"), float("nan"), True, False]
    )
    def test_inexact_values_refused(self, bad):
        # a float would be stored as its binary expansion, a bool as 1 or 0
        with pytest.raises(ValueError):
            Functional(("a",), 2, {("a",): bad})
        f = Functional(("a",), 2, {("a",): 3, ("a", "a"): "1/2"})
        with pytest.raises(ValueError):
            _mapped(f, lambda v: bad)
        with pytest.raises(ValueError):
            _mapped(f, lambda v: bad if v == 3 else v)
        with pytest.raises(ValueError):
            f.scale(bad)

    def test_exact_values_accepted(self):
        f = Functional(("a",), 2, {("a",): 3, ("a", "a"): "1/2"})
        assert f.scale(2) == Functional(("a",), 2, {("a",): 6, ("a", "a"): 1})
        assert f.scale("2/3").value(("a",)) == 2
        assert _mapped(f, lambda v: v.numerator).value(("a", "a")) == 1

    def test_unknown_word_lookup(self):
        f = Functional(AB, 2)
        with pytest.raises(ValueError):
            f.value(("a", "a", "a"))
        with pytest.raises(ValueError):
            f.value(("c",))
        # the empty word has length 0, whose placeholder row is no domain
        with pytest.raises(ValueError, match="not in the table's domain"):
            f.value(())

    def test_vector_ops(self):
        f = random_functional(AB, 3, 11)
        g = random_functional(AB, 3, 12)
        assert f.negate().negate() == f
        assert f + f.negate() == Functional(AB, 3)
        assert (f + f).scale(Fraction(1, 2)) == f
        assert f + g == g + f
        assert (f - g) + g == f

    def test_space_mismatch(self):
        f = Functional(AB, 3)
        with pytest.raises(ValueError):
            f.add(Functional(AB, 4))
        with pytest.raises(ValueError):
            f.add(Functional(("a",), 3))

    def test_json_roundtrip(self):
        f = random_functional(AB, 3, 13)
        obj = f.to_json()
        assert obj["alphabet"] == ["a", "b"]
        assert all("/" in v or v.lstrip("-").isdigit() for v in obj["values"].values())
        assert Functional.from_json(obj) == f

    def test_json_omits_zeros(self):
        f = Functional(AB, 2, {("a",): 1})
        assert set(f.to_json()["values"]) == {"a"}

    def test_zero_denominator_refused(self):
        # a ValueError, as from JSON, not a ZeroDivisionError
        with pytest.raises(ValueError, match="zero denominator"):
            Functional(("a",), 2).scale("1/0")
        with pytest.raises(ValueError, match="zero denominator"):
            Functional(("a",), 2, {("a",): "1/0"})

    def test_json_keys_naming_one_word_refused(self):
        # the spellings of one word are not merged, nor is one of them kept
        values = {"a,b": "1", "a, b": "5", " a ,b": "7"}
        with pytest.raises(ValueError, match="'a,b' and 'a, b' name the same word"):
            Functional.from_json({"alphabet": ["a", "b"], "max_order": 2, "values": values})
        one = {"alphabet": ["a", "b"], "max_order": 2, "values": {" a ,b": "7"}}
        assert Functional.from_json(one).value(("a", "b")) == 7

    def test_json_validation(self):
        with pytest.raises(ValueError):
            Functional.from_json({"alphabet": ["a"], "max_order": 2, "values": {"a,a,a": "1"}})
        with pytest.raises(ValueError):
            Functional.from_json({"alphabet": ["a"], "max_order": 2, "values": {"b": "1"}})
        with pytest.raises(ValueError):
            Functional.from_json({"alphabet": ["a"]})

    def test_word_text_roundtrip(self):
        assert word_from_text("a,b,a") == ("a", "b", "a")
        assert word_text(("a", "b")) == "a,b"
        with pytest.raises(ValueError):
            word_from_text("a,,b")


def _lowest_terms_inputs():
    # rows that share a factor: all-even numerators over odd denominators,
    # and a dense table with length 3 all zero
    words = list(all_words(AB, 5))
    even = {w: Fraction(2 * ((i * 7) % 9 - 4), (1, 3, 5)[i % 3]) for i, w in enumerate(words)}
    dense = random_functional(AB, 5, 140)
    gap = {w: dense.value(w) for w in dense.words() if len(w) != 3}
    return [Functional(AB, 5, even), Functional(AB, 5, gap)]


def _outputs(f, g):
    # every way a functional is made from others: the 12 conversions, the
    # five pre-Lie operations, the vector operations and JSON
    for x in KINDS:
        for y in KINDS:
            if x != y:
                yield f"{x}->{y}", convert(CumulantFamily(x, f), y).data
    yield "magnus", magnus(f)
    yield "magnus_inverse", magnus_inverse(f)
    yield "exp_left+", exp_left(g, f, 1)
    yield "exp_left-", exp_left(g, f, -1)
    yield "prelie_product", prelie_product(f, g)
    yield "add", f.add(g)
    yield "add-self", f + f
    yield "sub", f - g
    yield "sub-self", f - f
    yield "neg", -f
    yield "scale", f.scale(Fraction(1, 2))
    yield "scale-zero", f.scale(0)
    yield "from_json", Functional.from_json(f.to_json())


class TestLowestTerms:
    """Every row is stored in lowest terms, so equality of rows is equality
    of values: a functional equals the table built from its own values."""

    @pytest.mark.parametrize("which", (0, 1), ids=("even", "zero-length"))
    def test_outputs_are_in_lowest_terms(self, which):
        f, g = _lowest_terms_inputs()[which], _lowest_terms_inputs()[1 - which]
        for name, out in _outputs(f, g):
            values = {w: out.value(w) for w in out.words()}
            assert out == Functional(out.alphabet, out.max_order, values), name


class TestProduct:
    def test_vanishes_below_length_three(self):
        a = random_functional(AB, 4, 31)
        b = random_functional(AB, 4, 32)
        p = prelie_product(a, b)
        for w in all_words(AB, 2):
            assert p.value(w) == 0

    def test_univariate_low_orders(self):
        a = random_functional(("a",), 6, 33)
        b = random_functional(("a",), 6, 34)
        p = prelie_product(a, b)

        def A(n):
            return a.value(("a",) * n)

        def B(n):
            return b.value(("a",) * n)

        assert p.value(("a",) * 2) == 0
        assert p.value(("a",) * 3) == -B(2) * A(1)
        assert p.value(("a",) * 4) == -2 * B(3) * A(1) - B(2) * A(2)
        assert p.value(("a",) * 5) == -3 * B(4) * A(1) - 2 * B(3) * A(2) - B(2) * A(3)
        assert p.value(("a",) * 6) == (
            -4 * B(5) * A(1) - 3 * B(4) * A(2) - 2 * B(3) * A(3) - B(2) * A(4)
        )

    def test_univariate_closed_formula(self):
        a = random_functional(("a",), 10, 35)
        b = random_functional(("a",), 10, 36)
        p = prelie_product(a, b)
        for n in range(1, 11):
            closed = -sum(
                (
                    (n - l - 1) * b.value(("a",) * (n - l)) * a.value(("a",) * l)
                    for l in range(1, n - 1)
                ),
                Fraction(0),
            )
            assert p.value(("a",) * n) == closed

    def test_matches_two_block_partition_sum(self):
        # the product is the signed sum over irreducible partitions with two
        # blocks: the outer block feeds the right factor, the inner the left
        a = random_functional(AB, 5, 37)
        b = random_functional(AB, 5, 38)
        p = prelie_product(a, b)
        two_block = {
            m: [
                q
                for q in partitions.enumerate_nc_irr(m)
                if q.num_blocks == 2
            ]
            for m in range(1, 6)
        }
        for w in all_words(AB, 5):
            total = Fraction(0)
            for q in two_block[len(w)]:
                total += _sub(b, w, q.blocks[0]) * _sub(a, w, q.blocks[1])
            assert p.value(w) == -total

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            prelie_product(Functional(AB, 3), Functional(AB, 4))

    def test_prelie_identity(self):
        a = random_functional(AB, 6, 7)
        b = random_functional(AB, 6, 8)
        c = random_functional(AB, 6, 9)
        lhs = prelie_product(a, prelie_product(b, c)) - prelie_product(
            prelie_product(a, b), c
        )
        rhs = prelie_product(b, prelie_product(a, c)) - prelie_product(
            prelie_product(b, a), c
        )
        assert lhs == rhs


class TestIteratedProducts:
    def test_right_iteration_ladder_sum(self):
        # ((k1 |> k2) |> k3) ... |> k_{n+1} is the signed sum over irreducible
        # partitions whose nesting tree is the (n+1)-ladder, outermost block
        # paired with the last factor
        n_max = 8
        fs = [random_functional(AB, n_max, 50 + i) for i in range(4)]
        for n in (1, 2, 3):
            chain = fs[0]
            for i in range(1, n + 1):
                chain = prelie_product(chain, fs[i])
            ladder_enc = "[" * (n + 1) + "]" * (n + 1)
            per_length = {}
            for m in range(1, n_max + 1):
                per_length[m] = [
                    p
                    for p in partitions.enumerate_nc_irr(m)
                    if p.num_blocks == n + 1
                    and partitions.nesting_forest(p).encoding == ladder_enc
                ]
            for w in all_words(AB, n_max):
                total = Fraction(0)
                for p in per_length[len(w)]:
                    term = Fraction((-1) ** n)
                    for depth, block in enumerate(p.blocks):
                        term *= _sub(fs[n - depth], w, block)
                    total += term
                assert chain.value(w) == total

    def test_left_iteration_monotone_sum(self):
        # k1 |> (k2 |> (... |> k_{n+1})) sums over irreducible monotone
        # partitions, the block labeled j paired with factor n+2-j; the sum
        # runs on numerators over d^(n+1), reading each (factor, block) once
        # per word
        n_max = 8
        fs = [random_functional(AB, n_max, 60 + i) for i in range(4)]
        d, nums = _integer_tables(fs)
        for n in (1, 2, 3):
            chain = fs[n]
            for i in range(n - 1, -1, -1):
                chain = prelie_product(fs[i], chain)
            per_length = {
                m: [
                    tuple((n - j, b) for j, b in enumerate(mp.blocks_by_label))
                    for mp in partitions.enumerate_monotone_irr(m, n + 1)
                ]
                for m in range(1, n_max + 1)
            }
            keys = {m: {k for row in rows for k in row} for m, rows in per_length.items()}
            scale = (-1) ** n * d ** (n + 1)
            for w in all_words(AB, n_max):
                vals = _block_values(nums, w, keys[len(w)])
                total = sum(prod(vals[key] for key in row) for row in per_length[len(w)])
                assert chain.value(w) * scale == total

    def test_left_power_block_count_sum(self):
        # equal-argument left powers collapse to the count-weighted sum over
        # irreducible partitions with n+1 blocks, on numerators over d^(n+1)
        n_max = 8
        rho = random_functional(AB, n_max, 70)
        kap = random_functional(AB, n_max, 71)
        d, nums = _integer_tables([kap, rho])
        lhs = kap
        for n in (1, 2, 3):
            lhs = prelie_product(rho, lhs)
            # the outer block reads kap (factor 0), the others rho (factor 1)
            per_length = {
                m: [
                    (
                        partitions.monotone_count_partition(p),
                        ((0, p.blocks[0]),) + tuple((1, b) for b in p.blocks[1:]),
                    )
                    for p in partitions.enumerate_nc_irr(m)
                    if p.num_blocks == n + 1
                ]
                for m in range(1, n_max + 1)
            }
            keys = {m: {k for _, row in rows for k in row} for m, rows in per_length.items()}
            scale = (-1) ** n * d ** (n + 1)
            for w in all_words(AB, n_max):
                vals = _block_values(nums, w, keys[len(w)])
                total = sum(
                    count * prod(vals[key] for key in row)
                    for count, row in per_length[len(w)]
                )
                assert lhs.value(w) * scale == total


class TestEffectiveDegree:
    def test_vanishing_law(self):
        # a bracketing vanishes below its effective degree: a leaf has degree
        # 1 and a product adds the left degree to the right degree, clamped
        # below by 2
        a, b, c, d = (random_functional(AB, 6, 90 + i) for i in range(4))
        pp = prelie_product
        shapes = [
            (pp(a, b), 3),
            (pp(a, pp(b, c)), 4),
            (pp(pp(a, b), c), 5),
            (pp(pp(a, b), pp(c, d)), 6),
        ]
        for value, degree in shapes:
            for w in all_words(AB, degree - 1):
                assert value.value(w) == 0
            assert any(value.value(w) for w in value.words() if len(w) == degree)


class TestMagnus:
    def test_low_order_expansion(self):
        kappa = random_functional(AB, 4, 100)
        theta = magnus(kappa)
        for w in all_words(AB, 4):
            m = len(w)
            if m <= 2:
                assert theta.value(w) == kappa.value(w)
            elif m == 3:
                expected = kappa.value(w) + Fraction(1, 2) * kappa.value(
                    (w[0], w[2])
                ) * kappa.value((w[1],))
                assert theta.value(w) == expected
            else:
                expected = (
                    kappa.value(w)
                    + Fraction(1, 2)
                    * (
                        kappa.value((w[0], w[3])) * kappa.value((w[1], w[2]))
                        + kappa.value((w[0], w[2], w[3])) * kappa.value((w[1],))
                        + kappa.value((w[0], w[1], w[3])) * kappa.value((w[2],))
                    )
                    + Fraction(1, 6)
                    * kappa.value((w[0], w[3]))
                    * kappa.value((w[1],))
                    * kappa.value((w[2],))
                )
                assert theta.value(w) == expected

    def test_inverse_low_order(self):
        kappa = random_functional(AB, 3, 101)
        w_exp = magnus_inverse(kappa)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert w_exp.value(w) == kappa.value(w)
            else:
                expected = kappa.value(w) - Fraction(1, 2) * kappa.value(
                    (w[0], w[2])
                ) * kappa.value((w[1],))
                assert w_exp.value(w) == expected

    def test_mutual_inverses(self):
        kappa = random_functional(AB, 7, 102)
        assert magnus_inverse(magnus(kappa)) == kappa
        assert magnus(magnus_inverse(kappa)) == kappa

    def test_zero_fixed_point(self):
        zero = Functional(AB, 5)
        assert magnus(zero) == zero
        assert magnus_inverse(zero) == zero


class TestExpLeft:
    def test_short_words_unchanged(self):
        theta = random_functional(AB, 5, 110)
        kappa = random_functional(AB, 5, 111)
        for sign in (1, -1):
            e = exp_left(theta, kappa, sign)
            for w in all_words(AB, 2):
                assert e.value(w) == kappa.value(w)

    def test_zero_operator(self):
        kappa = random_functional(AB, 5, 112)
        assert exp_left(Functional(AB, 5), kappa, 1) == kappa

    def test_signs_invert(self):
        theta = random_functional(AB, 6, 113)
        kappa = random_functional(AB, 6, 114)
        assert exp_left(theta, exp_left(theta, kappa, 1), -1) == kappa

    def test_bad_sign(self):
        # True would read as +1, and a float sign would reach Fraction as a
        # TypeError: both are refused like a float or bool value
        f = Functional(AB, 3)
        for bad in (2, 0, True, False, 1.0, -1.0, "1", None):
            with pytest.raises(ValueError, match="sign must be"):
                exp_left(f, f, bad)
        assert exp_left(f, f, Fraction(-1)) == f


# Plain-Fraction references written from the definitions, sharing no code
# with the integer kernel: the product sums over every cut w = w1 w2 w3, and
# each series adds its weighted powers one full table at a time.


def _ref_product(alpha, beta):
    # each table is read once, so the cut loops cost dict lookups
    a = {w: alpha.value(w) for w in alpha.words()}
    b = {w: beta.value(w) for w in beta.words()}
    values = {}
    for w in a:
        m = len(w)
        values[w] = -sum(
            (
                a[w[i:j]] * b[w[:i] + w[j:]]
                for i in range(1, m - 1)
                for j in range(i + 1, m)
            ),
            Fraction(0),
        )
    return Functional(alpha.alphabet, alpha.max_order, values)


def _ref_series(left, kappa, coeff):
    total = power = kappa
    for n in range(1, kappa.max_order - 1):
        power = _ref_product(left, power)
        total = total + power.scale(coeff(n))
    return total


def _ref_bernoulli(n):
    # B_0 = 1 and sum over k <= n of C(n+1, k) B_k = 0, so B_1 = -1/2
    bs = [Fraction(1)]
    for j in range(1, n + 1):
        bs.append(-sum(comb(j + 1, k) * bs[k] for k in range(j)) / (j + 1))
    return bs[n]


def _ref_magnus(kappa):
    # iterate theta -> kappa + sum B_n/n! L_theta^n(kappa); each round fixes
    # two more lengths, since length m reads theta on lengths <= m - 2
    theta = kappa
    for _ in range(kappa.max_order):
        nxt = _ref_series(theta, kappa, lambda n: _ref_bernoulli(n) / factorial(n))
        if nxt == theta:
            return theta
        theta = nxt
    raise AssertionError("the fixed-point iteration did not settle")


def _primes(count):
    found = []
    p = 2
    while len(found) < count:
        if all(p % q for q in found if q * q <= p):
            found.append(p)
        p += 1
    return found


def _prime_pair(alphabet, order):
    # dense tables with a distinct prime denominator on every word
    words = list(all_words(alphabet, order))
    primes = iter(_primes(2 * len(words)))
    kappa = Functional(alphabet, order, {w: Fraction(1 + i % 7, next(primes)) for i, w in enumerate(words)})
    theta = Functional(alphabet, order, {w: Fraction(-2 - i % 5, next(primes)) for i, w in enumerate(words)})
    return kappa, theta


ABC = ("a", "b", "c")

# a few nonzero words of {a,b,c} up to order 6: most rows of every length
# are zero, so the kernel skips whole slices of its right factor
_SPARSE = {
    ("b",): 2,
    ("a", "c"): Fraction(-1, 3),
    ("c", "c"): 5,
    ("a", "b", "a"): Fraction(7, 2),
    ("c", "a", "b", "b"): -3,
    ("b", "c", "a", "a", "c"): Fraction(1, 5),
    ("a", "a", "c", "b", "c", "a"): 4,
}


def _kernel_case(name):
    # (kappa, theta) pairs: kappa carries the named feature, theta is dense
    if name == "prime-denominators":
        return _prime_pair(AB, 6)
    if name == "zero-length":
        dense = random_functional(AB, 6, 130)
        kappa = Functional(AB, 6, {w: dense.value(w) for w in dense.words() if len(w) != 4})
        return kappa, random_functional(AB, 6, 131)
    if name == "integers":
        return (_mapped(random_functional(AB, 6, 132), lambda v: v.numerator),
                _mapped(random_functional(AB, 6, 133), lambda v: v.numerator))
    if name == "ternary-primes":
        return _prime_pair(ABC, 6)
    if name == "quaternary-5":
        return random_functional("abcd", 5, 136), random_functional("abcd", 5, 137)
    if name == "sparse-ternary":
        return Functional(ABC, 6, _SPARSE), random_functional(ABC, 6, 138)
    return random_functional(("a",), 12, 134), random_functional(("a",), 12, 135)


# the base-q codes of the kernel's rows are exercised for q = 1..4, and at
# orders >= 5 both slice orientations (outer suffix longer or shorter than
# the outer prefix) run
KERNEL_CASES = (
    "prime-denominators",
    "zero-length",
    "integers",
    "univariate-12",
    "ternary-primes",
    "quaternary-5",
    "sparse-ternary",
)


class TestIntegerKernel:
    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_product_matches_definition(self, name):
        kappa, theta = _kernel_case(name)
        assert prelie_product(theta, kappa) == _ref_product(theta, kappa)
        assert prelie_product(kappa, kappa) == _ref_product(kappa, kappa)

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_magnus_matches_fixed_point(self, name):
        kappa, _ = _kernel_case(name)
        theta = magnus(kappa)
        assert theta == _ref_magnus(kappa)
        assert magnus_inverse(theta) == kappa

    @pytest.mark.parametrize("name", KERNEL_CASES)
    def test_magnus_inverse_matches_series(self, name):
        kappa, _ = _kernel_case(name)
        expected = _ref_series(kappa, kappa, lambda n: Fraction(1, factorial(n + 1)))
        assert magnus_inverse(kappa) == expected

    @pytest.mark.parametrize("name", KERNEL_CASES)
    @pytest.mark.parametrize("sign", (1, -1))
    def test_exp_left_matches_series(self, name, sign):
        kappa, theta = _kernel_case(name)
        forward = exp_left(theta, kappa, sign)
        assert forward == _ref_series(theta, kappa, lambda n: Fraction(sign**n, factorial(n)))
        assert exp_left(theta, forward, -sign) == kappa

    def test_kernel_reads_integers(self, monkeypatch):
        # every factor, every value read and every value returned is an int,
        # and the kernel runs once per (length, power), filling a whole row
        original = prelie_module._product_at
        calls, nonzero = [], []

        def checked(left, right, m, q, factors):
            assert all(type(f) is int for f in factors)
            for k in range(1, len(factors) + 1):
                assert len(left[k]) == q**k and len(right[m - k]) == q ** (m - k)
                assert all(type(v) is int for v in left[k])
                assert all(type(v) is int for v in right[m - k])
            result = original(left, right, m, q, factors)
            assert len(result) == q**m and all(type(v) is int for v in result)
            calls.append(m)
            nonzero.append(any(result))
            return result

        monkeypatch.setattr(prelie_module, "_product_at", checked)
        kappa, theta = _kernel_case("prime-denominators")
        n = kappa.max_order
        # L^j at length m for j = 1..m-2, one call each
        every_power = Counter({m: m - 2 for m in range(3, n + 1)})

        def lengths():
            seen = Counter(calls)
            calls.clear()
            return seen

        magnus(kappa)
        # B_3/3! = 0: at the top length, whose powers are not kept, L^3 is skipped
        assert lengths() == every_power - Counter({n: 1})
        magnus_inverse(kappa)
        assert lengths() == every_power
        exp_left(theta, kappa, -1)
        assert lengths() == every_power
        # the product is the series' first term: L^1 only, from length 3
        prelie_product(theta, kappa)
        assert lengths() == Counter(range(3, n + 1))
        # kappa as its own left factor shares its rows with the right one
        prelie_product(kappa, kappa)
        assert lengths() == Counter(range(3, n + 1))
        assert any(nonzero)
