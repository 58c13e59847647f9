import json
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from nccumulants import cli, cumulants, oracle, partitions, prelie, trees
from nccumulants.cumulants import (
    CumulantFamily,
    boolean_from_free,
    boolean_from_monotone,
    convert,
    cumulants_from_moments,
    expansion_terms,
    free_from_boolean,
    free_from_monotone,
    moments_from,
    monotone_from_boolean,
    monotone_from_free,
)
from nccumulants.oracle import random_functional
from nccumulants.prelie import Functional, all_words, exp_left, magnus, magnus_inverse

AB = ("a", "b")


def _pair_cumulant(max_order):
    # kappa(a^n) = 1 if n == 2 else 0, on the one-letter alphabet
    return Functional(("a",), max_order, {("a", "a"): 1})


def _plain_sum(src, from_kind, to_kind):
    # the closed sum of `from_kind -> to_kind` on plain Fractions, word by
    # word, over the rows expansion_terms lists
    rows = {m: expansion_terms(from_kind, to_kind, m) for m in range(1, src.max_order + 1)}
    # the input is read once, so the block loops cost dict lookups
    values = {w: src.value(w) for w in src.words()}
    out = {}
    for w in values:
        total = Fraction(0)
        for p, coeff in rows[len(w)]:
            term = coeff
            for block in p.blocks:
                term *= values[tuple(w[i - 1] for i in block)]
            total += term
        out[w] = total
    return out


class TestMoments:
    def test_free_pair_distribution(self):
        phi = moments_from("free", _pair_cumulant(10))
        catalan = [1, 2, 5, 14, 42]
        for k in range(1, 6):
            assert phi.value(("a",) * (2 * k)) == catalan[k - 1]
            assert phi.value(("a",) * (2 * k - 1)) == 0

    def test_boolean_pair_distribution(self):
        phi = moments_from("boolean", _pair_cumulant(4))
        assert phi.value(("a",) * 4) == 1
        assert phi.value(("a",) * 2) == 1

    def test_monotone_length_three(self):
        rho = random_functional(AB, 3, 200)
        phi = moments_from("monotone", rho)
        for w in all_words(AB, 3):
            if len(w) < 3:
                continue
            expected = (
                rho.value(w)
                + rho.value((w[0],)) * rho.value((w[1], w[2]))
                + rho.value((w[0], w[1])) * rho.value((w[2],))
                + Fraction(1, 2) * rho.value((w[0], w[2])) * rho.value((w[1],))
                + rho.value((w[0],)) * rho.value((w[1],)) * rho.value((w[2],))
            )
            assert phi.value(w) == expected

    def test_moment_kind_rejected(self):
        with pytest.raises(ValueError):
            moments_from("moment", _pair_cumulant(3))
        with pytest.raises(ValueError):
            cumulants_from_moments("moment", _pair_cumulant(3))

    def test_length_one_fixed(self):
        c = random_functional(AB, 4, 201)
        for kind in cumulants.CUMULANT_KINDS:
            phi = moments_from(kind, c)
            for letter in AB:
                assert phi.value((letter,)) == c.value((letter,))

    def test_inversion_roundtrip(self):
        c = random_functional(AB, 5, 202)
        phi = random_functional(AB, 5, 203)
        for kind in cumulants.CUMULANT_KINDS:
            assert cumulants_from_moments(kind, moments_from(kind, c)) == c
            assert moments_from(kind, cumulants_from_moments(kind, phi)) == phi

    def test_catalan_inverse(self):
        values = {}
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(2, 11, 2):
            values[("a",) * n] = catalan[n // 2]
        phi = Functional(("a",), 10, values)
        kappa = cumulants_from_moments("free", phi)
        assert kappa == _pair_cumulant(10)


class TestDirectConversions:
    def test_boolean_from_free_low_order(self):
        kappa = random_functional(AB, 3, 210)
        beta = boolean_from_free(kappa)
        for w in all_words(AB, 3):
            if len(w) == 1:
                assert beta.value(w) == kappa.value(w)
            elif len(w) == 2:
                assert beta.value(w) == kappa.value(w)
            else:
                expected = kappa.value(w) + kappa.value((w[0], w[2])) * kappa.value(
                    (w[1],)
                )
                assert beta.value(w) == expected

    def test_free_from_boolean_low_order(self):
        beta = random_functional(AB, 3, 211)
        kappa = free_from_boolean(beta)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert kappa.value(w) == beta.value(w)
            else:
                expected = beta.value(w) - beta.value((w[0], w[2])) * beta.value(
                    (w[1],)
                )
                assert kappa.value(w) == expected

    def test_free_from_monotone_low_order(self):
        rho = random_functional(AB, 3, 212)
        kappa = free_from_monotone(rho)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert kappa.value(w) == rho.value(w)
            else:
                expected = rho.value(w) - Fraction(1, 2) * rho.value(
                    (w[0], w[2])
                ) * rho.value((w[1],))
                assert kappa.value(w) == expected

    def test_boolean_from_monotone_low_order(self):
        rho = random_functional(AB, 3, 213)
        beta = boolean_from_monotone(rho)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert beta.value(w) == rho.value(w)
            else:
                expected = rho.value(w) + Fraction(1, 2) * rho.value(
                    (w[0], w[2])
                ) * rho.value((w[1],))
                assert beta.value(w) == expected

    def test_monotone_from_free_low_order(self):
        kappa = random_functional(AB, 3, 214)
        rho = monotone_from_free(kappa)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert rho.value(w) == kappa.value(w)
            else:
                expected = kappa.value(w) + Fraction(1, 2) * kappa.value(
                    (w[0], w[2])
                ) * kappa.value((w[1],))
                assert rho.value(w) == expected

    def test_monotone_from_boolean_low_order(self):
        beta = random_functional(AB, 3, 215)
        rho = monotone_from_boolean(beta)
        for w in all_words(AB, 3):
            if len(w) < 3:
                assert rho.value(w) == beta.value(w)
            else:
                expected = beta.value(w) - Fraction(1, 2) * beta.value(
                    (w[0], w[2])
                ) * beta.value((w[1],))
                assert rho.value(w) == expected

    def test_pair_cumulant_free_to_monotone(self):
        rho = monotone_from_free(_pair_cumulant(4))
        assert rho.value(("a",) * 3) == 0
        assert rho.value(("a",) * 4) == Fraction(1, 2)


class TestDualRoutes:
    # every closed partition sum against its expansion-side computation

    def test_monotone_from_free_is_magnus(self):
        kappa = random_functional(AB, 6, 220)
        assert monotone_from_free(kappa) == magnus(kappa)

    def test_monotone_from_boolean_is_negated_magnus(self):
        beta = random_functional(AB, 6, 221)
        assert monotone_from_boolean(beta) == magnus(beta.negate()).negate()

    def test_free_from_monotone_is_inverse_expansion(self):
        rho = random_functional(AB, 6, 222)
        assert free_from_monotone(rho) == magnus_inverse(rho)

    def test_boolean_from_monotone_is_negated_inverse(self):
        rho = random_functional(AB, 6, 223)
        assert boolean_from_monotone(rho) == magnus_inverse(rho.negate()).negate()

    def test_boolean_from_free_is_exponential(self):
        kappa = random_functional(AB, 6, 224)
        assert boolean_from_free(kappa) == exp_left(magnus(kappa), kappa, -1)

    def test_free_from_boolean_is_exponential(self):
        beta = random_functional(AB, 6, 225)
        theta = magnus(beta.negate())
        assert free_from_boolean(beta) == exp_left(theta, beta, -1)


class TestConsistency:
    def test_inverse_pairs(self):
        kappa = random_functional(AB, 6, 230)
        rho = random_functional(AB, 6, 231)
        beta = random_functional(AB, 6, 232)
        assert free_from_monotone(monotone_from_free(kappa)) == kappa
        assert monotone_from_free(free_from_monotone(rho)) == rho
        assert boolean_from_monotone(monotone_from_boolean(beta)) == beta
        assert monotone_from_boolean(boolean_from_monotone(rho)) == rho
        assert free_from_boolean(boolean_from_free(kappa)) == kappa
        assert boolean_from_free(free_from_boolean(beta)) == beta

    def test_triangle(self):
        kappa = random_functional(AB, 6, 233)
        assert boolean_from_free(kappa) == boolean_from_monotone(
            monotone_from_free(kappa)
        )

    def test_moment_consistency(self):
        kappa = random_functional(AB, 6, 234)
        phi_free = moments_from("free", kappa)
        phi_mono = moments_from("monotone", monotone_from_free(kappa))
        phi_bool = moments_from("boolean", boolean_from_free(kappa))
        assert phi_free == phi_mono == phi_bool

    def test_conversions_fix_lengths_one_and_two(self):
        src = random_functional(AB, 4, 235)
        for fn in (
            boolean_from_free,
            free_from_boolean,
            free_from_monotone,
            boolean_from_monotone,
            monotone_from_free,
            monotone_from_boolean,
        ):
            out = fn(src)
            for w in all_words(AB, 2):
                assert out.value(w) == src.value(w)


class TestConvertDispatcher:
    def test_identity(self):
        fam = CumulantFamily("free", random_functional(AB, 3, 240))
        assert convert(fam, "free") is fam

    def test_all_directed_pairs_roundtrip(self):
        data = random_functional(AB, 4, 241)
        for src_kind in cumulants.KINDS:
            fam = CumulantFamily(src_kind, data)
            for dst_kind in cumulants.KINDS:
                if dst_kind == src_kind:
                    continue
                out = convert(fam, dst_kind)
                assert out.kind == dst_kind
                back = convert(out, src_kind)
                assert back.kind == src_kind
                assert back.data == data

    def test_unknown_kinds(self):
        with pytest.raises(ValueError):
            CumulantFamily("weird", random_functional(AB, 3, 242))
        fam = CumulantFamily("free", random_functional(AB, 3, 243))
        with pytest.raises(ValueError):
            convert(fam, "weird")

    def test_envelope_roundtrip(self):
        fam = CumulantFamily("monotone", random_functional(AB, 3, 244))
        assert CumulantFamily.from_json(fam.to_json()) == fam
        with pytest.raises(ValueError):
            CumulantFamily.from_json({"functional": {}})


class TestExpansionTerms:
    def test_free_to_monotone_order_three(self):
        rows = {p.text(): c for p, c in expansion_terms("free", "monotone", 3)}
        assert rows == {
            "{{1,2,3}}": Fraction(1),
            "{{1,3},{2}}": Fraction(1, 2),
        }

    def test_monotone_to_free_order_three(self):
        rows = {p.text(): c for p, c in expansion_terms("monotone", "free", 3)}
        assert rows == {
            "{{1,2,3}}": Fraction(1),
            "{{1,3},{2}}": Fraction(-1, 2),
        }

    def test_rows_reproduce_conversion(self):
        src = random_functional(AB, 5, 250)
        for from_kind, to_kind, fn in (
            ("free", "monotone", monotone_from_free),
            ("boolean", "free", free_from_boolean),
            ("monotone", "boolean", boolean_from_monotone),
            ("free", "boolean", boolean_from_free),
            ("boolean", "monotone", monotone_from_boolean),
            ("monotone", "free", free_from_monotone),
            ("free", "moment", lambda f: moments_from("free", f)),
            ("boolean", "moment", lambda f: moments_from("boolean", f)),
            ("monotone", "moment", lambda f: moments_from("monotone", f)),
        ):
            out = fn(src)
            assert {w: out.value(w) for w in out.words()} == _plain_sum(src, from_kind, to_kind)

    @pytest.mark.parametrize("direction", sorted(cumulants._COEFF), ids="-".join)
    def test_rows_match_table_rows(self, direction):
        # the conversions and expansion_terms share the grouped table, so
        # its grouping is checked here against rows built straight from
        # _nc_terms and _COEFF: a reducible row enters no sum between
        # cumulants
        coeff = cumulants._COEFF[direction]
        for n in range(1, 8):
            expected = Counter(
                (partitions.NCPartition._wrap(blocks).text(), Fraction(coeff(*forest)))
                for blocks, forest in cumulants._nc_terms(n)
                if forest.om is not None or direction[1] == "moment"
            )
            rows = Counter((p.text(), c) for p, c in expansion_terms(*direction, n))
            assert rows == expected, n

    def test_moment_expansion(self):
        rows = {p.text(): c for p, c in expansion_terms("monotone", "moment", 3)}
        assert rows["{{1,3},{2}}"] == Fraction(1, 2)
        assert rows["{{1},{2},{3}}"] == Fraction(1)
        rows_b = {p.text(): c for p, c in expansion_terms("boolean", "moment", 3)}
        assert rows_b["{{1,3},{2}}"] == Fraction(0)
        assert rows_b["{{1,2},{3}}"] == Fraction(1)

    def test_unsupported_directions(self):
        with pytest.raises(ValueError):
            expansion_terms("moment", "free", 3)
        with pytest.raises(ValueError):
            expansion_terms("free", "free", 3)


class TestCachedTerms:
    # the table's rows come from forests composed in the enumeration, the
    # checks below from partitions.nesting_forest, which reads each
    # partition's parent array, so the two routes share no code

    def test_forest_factorials_match_tree_route(self):
        # the rows in enumeration order, each with its block count and the
        # factorial of the nesting forest read off its parent array
        for n in range(1, 11):
            rows = cumulants._nc_terms(n)
            for (blocks, forest), p in zip(rows, partitions.enumerate_nc(n), strict=True):
                assert blocks == p.blocks
                assert forest.nb == len(blocks), p.text()
                assert forest.ff == trees.forest_factorial(partitions.nesting_forest(p)), p.text()

    def test_interval_flags_match_predicate(self):
        for n in range(1, 11):
            for blocks, forest in cumulants._nc_terms(n):
                p = partitions.NCPartition._wrap(blocks)
                assert forest.iv == partitions.is_interval(p), p.text()

    def test_omega_matches_recursive_oracle(self):
        # the table's omega against the Bernoulli recursion over block subsets
        for n in range(1, 9):
            for blocks, forest in cumulants._nc_terms(n):
                p = partitions.NCPartition._wrap(blocks)
                if p.is_irreducible():
                    assert forest.om == oracle.omega_recursive(p), p.text()
                else:
                    assert forest.om is None, p.text()

    def test_omega_matches_nesting_tree(self):
        for n in range(1, 11):
            for blocks, forest in cumulants._nc_terms(n):
                if forest.om is not None:
                    p = partitions.NCPartition._wrap(blocks)
                    tree = partitions.nesting_forest(p).trees[0]
                    assert forest.om == trees.omega(tree), p.text()

    def test_rows_share_one_record_per_forest(self):
        # _grouped keys the rows by the identity of their record, so equal
        # nesting forests must share one record and distinct ones must not
        for n in range(1, 10):
            forest_of = {}
            for blocks, forest in cumulants._nc_terms(n):
                nesting = partitions.nesting_forest(partitions.NCPartition._wrap(blocks))
                assert forest_of.setdefault(id(forest), nesting) == nesting
            assert len(set(forest_of.values())) == len(forest_of), n

    @staticmethod
    def _fresh_caches(monkeypatch):
        # empty table caches for one test, so no earlier table is reused
        for owner, name in (
            (partitions, "_nc_blocks"),
            (cumulants, "_grouped"),
            (cumulants, "_columns"),
            (cumulants, "_terms"),
            (trees, "omega"),
        ):
            original = getattr(owner, name).__wrapped__
            monkeypatch.setattr(owner, name, lru_cache(maxsize=None)(original))

    def test_concurrent_cold_builds_agree(self, monkeypatch):
        # the caches are thread-safe and the forests interned per build, so
        # four threads building the same tables from empty caches at once
        # each get what one thread builds alone
        orders = range(1, 10)
        expected = [cumulants._grouped.__wrapped__(n) for n in orders]
        self._fresh_caches(monkeypatch)
        start = threading.Barrier(4)

        def build():
            start.wait()
            return [cumulants._grouped(n) for n in orders]

        with ThreadPoolExecutor(4) as pool:
            results = [f.result() for f in [pool.submit(build) for _ in range(4)]]
        assert all(result == expected for result in results)

    def test_enumeration_bound_on_table_path(self, monkeypatch):
        # the tables read the enumeration's blocks directly; the bound is
        # still checked, before anything is enumerated
        self._fresh_caches(monkeypatch)
        cumulants._grouped(9)
        enumerated = []
        for name in ("_nc_blocks", "_nc_forests"):
            monkeypatch.setattr(partitions, name, lambda arg: enumerated.append(arg))
        monkeypatch.setenv("NC_CUMULANTS_MAX_N", "8")
        with pytest.raises(ValueError, match="enumeration bound"):
            cumulants._nc_terms(9)
        src = random_functional(("a",), 9, 17)
        for x, y in (("free", "moment"), ("moment", "monotone"), ("boolean", "free")):
            with pytest.raises(ValueError, match="enumeration bound"):
                convert(CumulantFamily(x, src), y)
        # a table cached before the bound was lowered is not read past it
        with pytest.raises(ValueError, match="enumeration bound"):
            expansion_terms("free", "monotone", 9)
        assert enumerated == []

    def test_cache_sizes(self, monkeypatch):
        # what the table caches keep after a conversion at order 11: one
        # entry per order, one omega per distinct nesting tree, and the
        # enumeration's blocks per point run reached.  The forests are
        # interned per build, so no other memo cache is touched.
        self._fresh_caches(monkeypatch)
        caches = {
            f"{module.__name__}.{name}": fn
            for module in (cli, cumulants, oracle, partitions, prelie, trees)
            for name, fn in vars(module).items()
            if hasattr(fn, "cache_info")
        }
        before = {name: fn.cache_info() for name, fn in caches.items()}
        convert(CumulantFamily("free", _pair_cumulant(11)), "monotone")
        touched = {name for name, fn in caches.items() if fn.cache_info() != before[name]}
        assert touched == {
            "nccumulants.partitions._nc_blocks",
            "nccumulants.cumulants._grouped",
            "nccumulants.cumulants._columns",
            "nccumulants.cumulants._terms",
            "nccumulants.trees.omega",
            "nccumulants.trees._strict_counts",
        }
        assert partitions._nc_blocks.cache_info().currsize == 67
        assert cumulants._grouped.cache_info().currsize == 11
        assert cumulants._columns.cache_info().currsize == 11
        assert cumulants._terms.cache_info().currsize == 11
        assert trees.omega.cache_info().currsize == 112

    def test_directions_share_columns(self):
        # a direction keeping every row reads _grouped's own columns, and
        # directions keeping the same rows read one copy of them
        n = 7
        grouped = cumulants._grouped(n)[3]

        def columns(direction):
            return [c for _, c, _ in cumulants._terms(direction, n)[1]]

        for direction in (("free", "moment"), ("monotone", "moment")):
            assert all(a is b for a, (_, b, _, _) in zip(columns(direction), grouped, strict=True))
        irreducible = [
            ("free", "boolean"),
            ("boolean", "free"),
            ("monotone", "free"),
            ("monotone", "boolean"),
        ]
        first = columns(irreducible[0])
        for direction in irreducible[1:]:
            assert all(a is b for a, b in zip(columns(direction), first, strict=True))
        rows = [sum(len(c[0]) for c in cs) for cs in (columns(("boolean", "moment")), first)]
        assert rows == [2 ** (n - 1), 132]

    def test_show_order_builds_each_table_once(self, monkeypatch, tmp_path):
        # --show-order reads the table the conversion groups, so no order's
        # rows or forests are built twice
        self._fresh_caches(monkeypatch)
        built = {"_nc_terms": Counter(), "_nc_forests": Counter()}

        def counting(fn, counter):
            def wrapper(n):
                counter[n] += 1
                return fn(n)

            return wrapper

        for owner, name in ((cumulants, "_nc_terms"), (partitions, "_nc_forests")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name), built[name]))
        m = 6
        src = tmp_path / "in.json"
        src.write_text(json.dumps(CumulantFamily("free", _pair_cumulant(m)).to_json()))
        argv = ["convert", "--from", "free", "--to", "monotone", "--input", str(src)]
        argv += ["--output", str(tmp_path / "out.json"), "--show-order", str(m)]
        assert cli.main(argv) == 0
        assert built == {name: Counter(range(1, m + 1)) for name in built}


def _primes(count):
    primes = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


_KERNEL_INPUTS = ("prime-denominators", "zero-lengths", "integers", "semicircle")


@lru_cache(maxsize=None)
def _kernel_inputs(n=6):
    # inputs that stress the integer kernel's common denominators
    words = list(all_words(AB, n))
    signs = [1, -2, 3, -1, 2, -3]
    dense = random_functional(AB, n, 260)
    return {
        # every word its own prime denominator: the lcm per length is large
        "prime-denominators": Functional(
            AB,
            n,
            {
                w: Fraction(signs[i % 6], p)
                for i, (w, p) in enumerate(zip(words, _primes(len(words))))
            },
        ),
        # whole lengths that are zero: their common denominator is 1
        "zero-lengths": Functional(
            AB, n, {w: dense.value(w) for w in dense.words() if len(w) not in (1, 4)}
        ),
        "integers": Functional(AB, n, {w: (i * 7) % 9 - 4 for i, w in enumerate(words)}),
        # the free semicircular system: sparse, mostly zero products
        "semicircle": Functional(AB, n, {("a", "a"): 1, ("b", "b"): 1}),
    }


_CLOSED = [(x, y) for x in cumulants.CUMULANT_KINDS for y in cumulants.KINDS if y != x]


class TestIntegerKernel:
    """The integer partition-sum kernel against a plain Fraction sum."""

    @pytest.mark.parametrize("name", _KERNEL_INPUTS)
    @pytest.mark.parametrize("direction", _CLOSED, ids="-".join)
    def test_closed_sums_match_plain_fractions(self, direction, name):
        src = _kernel_inputs()[name]
        out = convert(CumulantFamily(direction[0], src), direction[1]).data
        assert {w: out.value(w) for w in out.words()} == _plain_sum(src, *direction)

    @pytest.mark.parametrize("name", _KERNEL_INPUTS)
    @pytest.mark.parametrize("kind", cumulants.CUMULANT_KINDS)
    def test_inversions_round_trip(self, kind, name):
        phi = _kernel_inputs()[name]
        assert moments_from(kind, cumulants_from_moments(kind, phi)) == phi

    def test_block_products_are_integers(self, monkeypatch):
        # every value and numerator the block products read is an int
        seen = []
        original = cumulants._block_product

        def checked(vals, columns, nums):
            seen.extend(map(type, vals))
            seen.extend(map(type, nums))
            return original(vals, columns, nums)

        monkeypatch.setattr(cumulants, "_block_product", checked)
        src = _kernel_inputs(4)["prime-denominators"]
        for x in cumulants.KINDS:
            for y in cumulants.KINDS:
                if x != y:
                    convert(CumulantFamily(x, src), y)
        assert seen and set(seen) == {int}

    @staticmethod
    def _counted_products(monkeypatch):
        calls = []
        original = cumulants._block_product

        def counted(*args):
            calls.append(None)
            return original(*args)

        monkeypatch.setattr(cumulants, "_block_product", counted)
        return calls

    @staticmethod
    def _expected_products(direction, read):
        # one product per word and per shape of the direction's table whose
        # lengths all read a nonzero row, where read[m] holds the rows that
        # length m reads; and the row products of the old per-row kernel
        table = direction[::-1] if direction[0] == "moment" else direction
        calls = rows = 0
        for m in range(1, len(read)):
            zero = [not any(row) for row in read[m]]
            for shape, _, nums in cumulants._terms(table, m)[1]:
                if not any(zero[k] for k in shape):
                    calls += 2**m
                rows += len(nums) * 2**m
        return calls, rows

    @staticmethod
    def _reads(src, out, invert):
        # the rows each length reads: the input's, or in an inversion the
        # outputs solved so far and a zero row at the length being solved
        if not invert:
            return [src._rows] * (src.max_order + 1)
        return [out._rows[:m] + [[0] * 2**m] for m in range(src.max_order + 1)]

    @pytest.mark.parametrize(
        "direction",
        _CLOSED + [("moment", kind) for kind in cumulants.CUMULANT_KINDS],
        ids="-".join,
    )
    def test_one_product_per_row(self, monkeypatch, direction):
        # the products of a word are not made one row at a time: each word
        # calls _block_product once for every shape of its table that reads
        # no all-zero length, and there are fewer shapes than rows; the
        # one-block shape of an inversion reads the length being solved,
        # still 0
        calls = self._counted_products(monkeypatch)
        n = 5
        src = random_functional(AB, n, 15)
        out = convert(CumulantFamily(direction[0], src), direction[1]).data
        reads = self._reads(src, out, direction[0] == "moment")
        expected, rows = self._expected_products(direction, reads)
        assert len(calls) == expected < rows

    @pytest.mark.parametrize("kind", cumulants.CUMULANT_KINDS)
    def test_zero_length_skipped(self, monkeypatch, kind):
        # cumulants whose length 3 is all zero: the moments skip every shape
        # reading length 3, and so does the inversion, which reads the
        # cumulants solved so far; both still equal the plain sums
        n = 6
        dense = random_functional(AB, n, 31)
        kappa = Functional(AB, n, {w: dense.value(w) for w in dense.words() if len(w) != 3})
        calls = self._counted_products(monkeypatch)
        phi = moments_from(kind, kappa)
        plain = _plain_sum(kappa, kind, "moment")
        assert {w: phi.value(w) for w in phi.words()} == plain
        assert len(calls) == self._expected_products((kind, "moment"), self._reads(kappa, phi, False))[0]
        calls.clear()
        assert cumulants_from_moments(kind, phi) == kappa
        reads = self._reads(phi, kappa, True)
        assert not any(reads[5][3])
        assert len(calls) == self._expected_products(("moment", kind), reads)[0]

    @pytest.mark.parametrize("gather", [1, 90, 400])
    def test_chunked_gathers_agree(self, monkeypatch, gather):
        # reading the words a few at a time, in chunks that need not divide
        # a length, changes no output
        src = random_functional(AB, 6, 23)
        expected = {
            (x, y): convert(CumulantFamily(x, src), y)
            for x in cumulants.KINDS
            for y in cumulants.KINDS
            if x != y
        }
        monkeypatch.setattr(cumulants, "_GATHER", gather)
        chunks = []
        original = cumulants._gathered

        def recorded(rows, m, q, plan, reads):
            for values in original(rows, m, q, plan, reads):
                chunks.append((len(values[0]), len(values), 2**m))
                yield values

        monkeypatch.setattr(cumulants, "_gathered", recorded)
        for (x, y), out in expected.items():
            assert convert(CumulantFamily(x, src), y) == out
        assert all(width <= max(1, gather // blocks) for width, blocks, _ in chunks)
        assert any(width < words for width, _, words in chunks)

    def test_gathered_values_bounded(self):
        # {a,b} at length 12 reads 4,096 words of up to 4,095 blocks, so
        # the words come in chunks of at most _GATHER values; only the
        # first chunk is built
        m = 12
        blocks = [b for k in range(1, m + 1) for b in combinations(range(1, m + 1), k)]
        plan = cumulants._gather_plan(blocks)
        rows = [[0]] + [list(range(2**k)) for k in range(1, m + 1)]
        width = cumulants._GATHER // len(blocks)
        assert 1 <= width < 2**m
        values = next(cumulants._gathered(rows, m, 2, plan, set(range(1, m + 1))))
        assert len(values) == len(blocks) and {len(v) for v in values} == {width}
        assert len(values) * width <= cumulants._GATHER
        # the values are the subwords' codes: block b of word c
        for b in (0, len(blocks) // 2, len(blocks) - 1):
            digits = [(c >> (m - i)) & 1 for c in range(width) for i in blocks[b]]
            k = len(blocks[b])
            codes = [int("".join(map(str, digits[c * k:(c + 1) * k])), 2) for c in range(width)]
            assert values[b] == codes
