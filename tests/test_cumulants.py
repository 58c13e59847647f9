import gc
import json
import pathlib
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

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


def _points(mask, n):
    # the block with this bitmask over [n], decoded here: point i is the
    # bit i - 1
    return [i for i in range(1, n + 1) if mask >> (i - 1) & 1]


def _table_rows(n):
    # every row of the order-n table read back from its bitmask columns, as
    # (partition, shape, (forest, root), row of block bitmasks), the key
    # that of the row's run; NCPartition checks that the decoded blocks are
    # a non-crossing partition
    for shape, columns, runs in cumulants._nc_terms(n):
        owners = [key for key, rows in runs for _ in range(rows)]
        for row, key in zip(zip(*columns), owners, strict=True):
            yield partitions.NCPartition([_points(b, n) for b in row]), shape, key, row


# a conversion whose legs into moments are the closed sum over NC(n)
_leg = oracle._leg


def _interval_sum(src, invert=False):
    # moments from Boolean cumulants by the plain sum over interval
    # partitions of the block products, or with invert the Boolean
    # cumulants of moments by the signed sum over interval partitions pi of
    # (-1)^(|pi| - 1) phi_pi(w), word by word on Fractions
    def cuts(m):  # the interval partitions of [m] by their block ends
        return [(0, *c, m) for k in range(m) for c in combinations(range(1, m), k)]

    out = {}
    for w in src.words():
        total = Fraction(0)
        for ends in cuts(len(w)):
            term = Fraction((-1) ** (len(ends) - 2) if invert else 1)
            for i, j in zip(ends, ends[1:]):
                term *= src.value(w[i:j])
            total += term
        out[w] = total
    return out


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
        # every leg into moments is the closed sum (see _leg)
        c = random_functional(AB, 5, 202)
        phi = random_functional(AB, 5, 203)
        for kind in cumulants.CUMULANT_KINDS:
            assert cumulants_from_moments(kind, _leg(c, kind, "moment")) == c
            assert _leg(cumulants_from_moments(kind, phi), kind, "moment") == phi

    def test_catalan_inverse(self):
        values = {}
        catalan = [1, 1, 2, 5, 14, 42]
        for n in range(2, 11, 2):
            values[("a",) * n] = catalan[n // 2]
        phi = Functional(("a",), 10, values)
        kappa = cumulants_from_moments("free", phi)
        assert kappa == _pair_cumulant(10)

    def test_boolean_past_the_enumeration_bound(self, monkeypatch, tmp_path):
        # moments and Boolean cumulants convert by the first interval, which
        # reads no partition table, so the enumeration bound does not cap
        # them: the semicircle's Catalan moments at {a} order 30 have the
        # Boolean cumulants beta(a^2k) = Catalan(k - 1), 0 at odd orders
        def refused(*args):
            raise AssertionError("a partition table was read")

        monkeypatch.setattr(cumulants, "_nc_terms", refused)
        monkeypatch.setattr(cumulants, "_terms", refused)
        monkeypatch.setattr(partitions, "_check_enum_n", refused)
        n = 30
        catalan = [comb(2 * k, k) // (k + 1) for k in range(n // 2 + 1)]
        phi = Functional(("a",), n, {("a",) * (2 * k): catalan[k] for k in range(1, n // 2 + 1)})
        expected = Functional(
            ("a",), n, {("a",) * (2 * k): catalan[k - 1] for k in range(1, n // 2 + 1)}
        )
        beta = convert(CumulantFamily("moment", phi), "boolean")
        assert beta.data == expected
        assert convert(beta, "moment").data == phi
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        src.write_text(json.dumps(CumulantFamily("moment", phi).to_json()))
        argv = ["convert", "--from", "moment", "--to", "boolean", "--input", str(src)]
        assert cli.main(argv + ["--output", str(dst)]) == 0
        assert CumulantFamily.from_json(json.loads(dst.read_text())) == beta


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
        # the moments of one law from each of its cumulant families: the
        # production route from free cumulants, the closed sums over NC(n)
        # from the other two
        kappa = random_functional(AB, 6, 234)
        phi_free = moments_from("free", kappa)
        phi_mono = _leg(monotone_from_free(kappa), "monotone", "moment")
        phi_bool = _leg(boolean_from_free(kappa), "boolean", "moment")
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
                assert convert(fam, dst_kind).kind == dst_kind
                assert _leg(_leg(data, src_kind, dst_kind), dst_kind, src_kind) == data

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


# every direction with a closed order-n expansion, in sorted order
_EXPANDED = [
    ("boolean", "free"),
    ("boolean", "moment"),
    ("boolean", "monotone"),
    ("free", "boolean"),
    ("free", "moment"),
    ("free", "monotone"),
    ("monotone", "boolean"),
    ("monotone", "free"),
    ("monotone", "moment"),
]


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

    @pytest.mark.parametrize("direction", _EXPANDED, ids="-".join)
    def test_rows_match_table_rows(self, direction):
        # the cross-check of the composed table against the per-partition
        # statement: the rows of expansion_terms, read off each enumerated
        # partition's own nesting forest, against rows read straight from
        # the composed runs of _nc_terms (block bitmasks) with each run's
        # coefficient; a reducible row enters no sum between cumulants
        for n in range(1, 8):
            expected = Counter()
            for p, _, (forest, _), _ in _table_rows(n):
                coeff = cumulants._coefficient(direction, forest)
                if coeff is not None:
                    expected[p.text(), coeff] += 1
            rows = Counter((p.text(), c) for p, c in expansion_terms(*direction, n))
            assert rows == expected, n

    def test_rows_match_golden_order_six(self):
        # every row of all nine expansions at order 6, partition text and
        # coefficient in the order listed, as the table built one
        # partition at a time gave them
        golden = pathlib.Path(__file__).with_name("expansion_order6.txt")
        rows = [
            f"{x} {y} {p.text()} {c}"
            for x, y in _EXPANDED
            for p, c in expansion_terms(x, y, 6)
        ]
        assert rows == golden.read_text(encoding="utf-8").splitlines()

    def test_rows_follow_enumeration_order(self):
        # the rows come in enumerate_nc's order, the order --show-order
        # prints: all of them into moments, the irreducible ones otherwise
        for n in range(1, 10):
            every = partitions.enumerate_nc(n)
            for x, y in _EXPANDED:
                rows = [p for p, _ in expansion_terms(x, y, n)]
                assert rows == [p for p in every if y == "moment" or p.is_irreducible()], (x, y, n)

    def test_sign_dual_rows_match_closed_formulas(self):
        # the three sums computed as sign duals, against their own
        # coefficients read off each irreducible partition's nesting tree,
        # with no partition table
        for n in range(1, 10):
            formulas = {}
            for p in partitions.enumerate_nc_irr(n):
                forest = partitions.nesting_forest(p)
                for direction, c in (
                    (("boolean", "free"), Fraction((-1) ** (p.num_blocks - 1))),
                    (("monotone", "boolean"), Fraction(1, trees.forest_factorial(forest))),
                    (("boolean", "monotone"), trees.omega(forest.trees[0])),
                ):
                    formulas.setdefault(direction, {})[p.text()] = c
            for direction, expected in formulas.items():
                rows = [(p.text(), c) for p, c in expansion_terms(*direction, n)]
                assert dict(rows) == expected and len(rows) == len(expected), (direction, n)

    def test_boolean_moment_rows_are_the_interval_partitions(self):
        # from Boolean cumulants the nonzero rows into moments are exactly
        # the interval partitions, each block a run of consecutive points:
        # the 2^(n-1) compositions of n, each with coefficient 1
        for n in range(1, 11):
            rows = expansion_terms("boolean", "moment", n)
            nonzero = [p for p, c in rows if c]
            interval = [
                p for p, _ in rows if all(b[-1] - b[0] == len(b) - 1 for b in p.blocks)
            ]
            assert nonzero == interval and len(interval) == 2 ** (n - 1), n
            assert {c for _, c in rows if c} == {1}, n

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
    # the table's rows are composed from shorter orders' runs; the checks
    # below read them back from the bitmask columns and compare them with
    # enumerate_nc and with partitions.nesting_forest, which reads each
    # partition's parent array, so the two routes share no code

    def test_every_partition_is_one_row(self):
        # every non-crossing partition is one row, exactly once, of its own
        # shape, in a run whose forest has one vertex per block
        for n in range(1, 11):
            seen = Counter()
            for p, shape, (forest, _), _ in _table_rows(n):
                seen[p] += 1
                assert shape == tuple(sorted(map(len, p.blocks))), p.text()
                assert forest.size == p.num_blocks, p.text()
            assert seen == Counter(partitions.enumerate_nc(n)), n
            assert set(seen.values()) == {1}, n

    def test_omega_matches_recursive_oracle(self):
        # the omega of each irreducible run's tree against the Bernoulli
        # recursion over block subsets; a reducible run's forest has more
        # than one tree, so it has no omega
        for n in range(1, 9):
            for p, _, (forest, root), _ in _table_rows(n):
                if p.is_irreducible():
                    assert trees.omega(forest.trees[0]) == oracle.omega_recursive(p), p.text()
                else:
                    assert len(forest.trees) > 1 and root == 0, p.text()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_composed_forests_match_nesting_forest(self, n):
        # the forests that the closed-sum tables compose, read as each row's
        # run key, against the ones read off each partition's parent array:
        # the same trees.Forest, and the size of the root block, column 0,
        # for an irreducible partition, 0 otherwise
        for p, _, (forest, root), row in _table_rows(n):
            assert forest == partitions.nesting_forest(p), p.text()
            if p.is_irreducible():
                assert root == len(p.blocks[0]), p.text()
                assert _points(row[0], n) == list(p.blocks[0]), p.text()
            else:
                assert root == 0, p.text()

    def test_one_run_per_shape_and_key(self):
        # the composition merges every pair of runs that meet in one shape,
        # forest and root size, so no two runs of an order share them
        for n in range(1, 10):
            runs = [(shape, key) for shape, _, rs in cumulants._nc_terms(n) for key, _ in rs]
            assert len(set(runs)) == len(runs), n

    @staticmethod
    def _fresh_caches(monkeypatch):
        # empty table caches for one test, so no earlier table is reused
        for owner, name in (
            (partitions, "_nc_blocks"),
            (cumulants, "_nc_terms"),
            (cumulants, "_terms"),
            (trees, "omega"),
            (trees, "tree_factorial"),
        ):
            original = getattr(owner, name).__wrapped__
            monkeypatch.setattr(owner, name, lru_cache(maxsize=None)(original))

    def test_concurrent_cold_builds_agree(self, monkeypatch):
        # the caches are thread-safe and the forests interned per build, so
        # four threads building the same tables from empty caches at once
        # each get what one thread builds alone
        orders = range(1, 10)
        expected = [cumulants._nc_terms.__wrapped__(n) for n in orders]
        self._fresh_caches(monkeypatch)
        start = threading.Barrier(4)

        def build():
            start.wait()
            return [cumulants._nc_terms(n) for n in orders]

        with ThreadPoolExecutor(4) as pool:
            results = [f.result() for f in [pool.submit(build) for _ in range(4)]]
        assert all(result == expected for result in results)

    def test_enumeration_bound_on_table_path(self, monkeypatch):
        # the tables are composed without enumerating; the bound is still
        # checked, before any run is read or composed
        self._fresh_caches(monkeypatch)
        enumerated = []
        with monkeypatch.context() as patch:
            for owner, name in ((partitions, "_nc_blocks"), (cumulants, "_runs")):
                patch.setattr(owner, name, lambda *args: enumerated.append(args))
            patch.setenv("NC_CUMULANTS_MAX_N", "8")
            with pytest.raises(ValueError, match="enumeration bound"):
                cumulants._nc_terms(9)
        assert enumerated == []
        # a cached table is returned without the check, so a conversion
        # checks the bound before it reads any table: with order 9 cached,
        # each conversion past the bound still refuses it and reads none
        src = random_functional(("a",), 9, 17)
        conversions = (("free", "moment"), ("moment", "monotone"), ("boolean", "free"))
        for x, y in conversions:
            convert(CumulantFamily(x, src), y)
        read = cumulants._nc_terms.cache_info(), cumulants._terms.cache_info()
        monkeypatch.setattr(partitions, "_nc_blocks", lambda *args: enumerated.append(args))
        monkeypatch.setenv("NC_CUMULANTS_MAX_N", "8")
        for x, y in conversions:
            with pytest.raises(ValueError, match="enumeration bound"):
                convert(CumulantFamily(x, src), y)
        # nor is an expansion listed past it
        with pytest.raises(ValueError, match="enumeration bound"):
            expansion_terms("free", "monotone", 9)
        assert (cumulants._nc_terms.cache_info(), cumulants._terms.cache_info()) == read
        assert enumerated == []

    def test_cached_tables_are_read_only(self, monkeypatch):
        # later orders and every kept sum read the same cached arrays, so
        # nothing may write to them: every column of _nc_terms, taken as
        # each order is built, and of _terms for the six kept sums, up to
        # order 9, is unchanged after the twelve directions run at {a,b}
        # order 7 and {a} order 9
        self._fresh_caches(monkeypatch)

        def columns(shapes):  # the bytes of every column of a table's shapes
            return [c.tobytes() for _, cs, _ in shapes for c in cs]

        def kept():
            return [columns(cumulants._terms(d, n)[1]) for d in cumulants._COEFF for n in orders]

        orders = range(1, 10)
        tables, sums = [columns(cumulants._nc_terms(n)) for n in orders], kept()
        for src in (random_functional(AB, 7, 41), random_functional(("a",), 9, 43)):
            for x in cumulants.KINDS:
                for y in cumulants.KINDS:
                    if x != y:
                        convert(CumulantFamily(x, src), y)
        assert [columns(cumulants._nc_terms(n)) for n in orders] == tables and kept() == sums

    def test_cache_sizes(self, monkeypatch):
        # what the table caches keep after a conversion at order 11: one
        # entry per order, and one omega and one tree factorial per
        # distinct nesting tree that the kept sum reads.  The
        # tables are composed without enumerating and the forests keyed
        # per build, so no other memo cache is touched.
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
            "nccumulants.cumulants._nc_terms",
            "nccumulants.cumulants._terms",
            "nccumulants.trees.omega",
            "nccumulants.trees._strict_counts",
            "nccumulants.trees.tree_factorial",
        }
        assert cumulants._nc_terms.cache_info().currsize == 11
        assert cumulants._terms.cache_info().currsize == 11
        assert trees.omega.cache_info().currsize == 112
        assert trees.tree_factorial.cache_info().currsize == 112

    def test_show_order_builds_each_table_once(self, monkeypatch, tmp_path):
        # the conversion composes each order's rows once, and --show-order
        # lists its rows from the enumeration, reading no table
        self._fresh_caches(monkeypatch)
        built, listing = Counter(), []
        nc_terms = cumulants._nc_terms.__wrapped__

        def composing(n):  # one call per cache miss
            built[n] += 1
            return nc_terms(n)

        def listed(*args):
            before = cumulants._nc_terms.cache_info()
            rows = expansion_terms(*args)
            listing.append(before == cumulants._nc_terms.cache_info())
            return rows

        monkeypatch.setattr(cumulants, "_nc_terms", lru_cache(maxsize=None)(composing))
        monkeypatch.setattr(cumulants, "expansion_terms", listed)
        m = 6
        src = tmp_path / "in.json"
        src.write_text(json.dumps(CumulantFamily("free", _pair_cumulant(m)).to_json()))
        argv = ["convert", "--from", "free", "--to", "monotone", "--input", str(src)]
        argv += ["--output", str(tmp_path / "out.json"), "--show-order", str(m)]
        assert cli.main(argv) == 0
        assert built == Counter(range(1, m + 1)) and listing == [True]

    def test_table_memory(self, monkeypatch):
        # the six directions of the uni-deep benchmark, {a} at order 11,
        # from empty caches: no partition is enumerated, the tables keep
        # less than 8 MB alive with a peak under 10 MB while built (14.7
        # and 16.1 MB when every partition was built as block tuples), and
        # _terms holds the two kept sums they run, free -> Boolean and
        # free -> monotone, at each order
        self._fresh_caches(monkeypatch)
        inputs = {"free": _pair_cumulant(11), "moment": random_functional(("a",), 11, 3)}
        enumerated = partitions._nc_blocks.cache_info()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for x, src in inputs.items():
                for y in cumulants.KINDS:
                    if y != x:
                        convert(CumulantFamily(x, src), y)
            gc.collect()
            kept, peak = (size - base for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert partitions._nc_blocks.cache_info() == enumerated
        assert cumulants._terms.cache_info().currsize == 22
        assert kept < 8_000_000 and peak < 10_000_000, (kept, peak)


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
def _kernel_inputs(n=6, alphabet=AB):
    # inputs that stress the integer kernel's common denominators
    words = list(all_words(alphabet, n))
    signs = [1, -2, 3, -1, 2, -3]
    dense = random_functional(alphabet, n, 260)
    return {
        # every word its own prime denominator: the lcm per length is large
        "prime-denominators": Functional(
            alphabet,
            n,
            {
                w: Fraction(signs[i % 6], p)
                for i, (w, p) in enumerate(zip(words, _primes(len(words))))
            },
        ),
        # whole lengths that are zero: their common denominator is 1
        "zero-lengths": Functional(
            alphabet, n, {w: dense.value(w) for w in dense.words() if len(w) not in (1, 4)}
        ),
        "integers": Functional(alphabet, n, {w: (i * 7) % 9 - 4 for i, w in enumerate(words)}),
        # the free semicircular system: sparse, mostly zero products
        "semicircle": Functional(alphabet, n, {(x, x): 1 for x in alphabet}),
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
        # back to moments by the closed sum (see _leg)
        phi = _kernel_inputs()[name]
        assert _leg(cumulants_from_moments(kind, phi), kind, "moment") == phi

    @pytest.mark.parametrize("name", _KERNEL_INPUTS)
    @pytest.mark.parametrize("alphabet, n", [(AB, 6), (("a",), 10)], ids=["ab6", "a10"])
    @pytest.mark.parametrize("invert", [False, True], ids=["boolean-moment", "moment-boolean"])
    def test_interval_fill_matches_interval_sums(self, invert, alphabet, n, name):
        # the first-interval recursion against the closed sums over interval
        # partitions, written here on plain Fractions from value() alone
        src = _kernel_inputs(n, alphabet)[name]
        kinds = ("moment", "boolean") if invert else ("boolean", "moment")
        out = convert(CumulantFamily(kinds[0], src), kinds[1]).data
        assert {w: out.value(w) for w in out.words()} == _interval_sum(src, invert)

    def test_negate_is_scale_minus_one(self):
        # the sign duals negate their input and output: flipping the signs
        # of rows in lowest terms gives what the gcd pass of scale(-1) gives
        src = _kernel_inputs()["prime-denominators"]
        assert src.negate() == src.scale(-1) != src

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
    def _expected_products(direction, rows):
        # one product per word and per shape of the table of the direction's
        # kept sum (itself or the sum it is the sign dual of) that reads no
        # all-zero length of `rows`, the input's rows, which negation keeps;
        # and the row products of the old per-row kernel
        zero = [not any(row) for row in rows]
        calls = products = 0
        for m in range(1, len(rows)):
            for shape, _, nums in cumulants._terms(cumulants._kept(direction)[0], m)[1]:
                if not any(zero[k] for k in shape):
                    calls += 2**m
                products += len(nums) * 2**m
        return calls, products

    @staticmethod
    def _leg_products(direction, src):
        # the products of a direction's closed sum over irreducible
        # partitions: a direction touching moments makes only those of its
        # leg to or from Boolean cumulants, none between moments and Boolean
        # cumulants, whose first-interval recursion makes no block product
        x, y = ("boolean" if kind == "moment" else kind for kind in direction)
        if x == y:
            return 0
        if direction[0] == "moment":
            src = convert(CumulantFamily("moment", src), "boolean").data
        return TestIntegerKernel._expected_products((x, y), src._rows)[0]

    @pytest.mark.parametrize(
        "direction",
        _CLOSED + [("moment", kind) for kind in cumulants.CUMULANT_KINDS],
        ids="-".join,
    )
    def test_one_product_per_row(self, monkeypatch, direction):
        # the products of a word are not made one row at a time: each word
        # calls _block_product once for every shape of its table that reads
        # no all-zero length, and there are fewer calls than rows; in a
        # direction touching moments, fewer than the sum over NC(n) has rows
        n = 5
        src = random_functional(AB, n, 15)
        expected = self._leg_products(direction, src)
        table = direction[::-1] if direction[0] == "moment" else direction
        rows = self._expected_products(table, src._rows)[1]
        calls = self._counted_products(monkeypatch)
        convert(CumulantFamily(direction[0], src), direction[1])
        assert len(calls) == expected < rows

    @pytest.mark.parametrize("kind", cumulants.CUMULANT_KINDS)
    def test_zero_length_skipped(self, monkeypatch, kind):
        # cumulants whose lengths 1 and 3 are all zero, and so are their
        # Boolean cumulants (every irreducible partition of [3] but the one
        # block has a singleton): the moments skip every shape of the leg
        # to Boolean cumulants that reads those lengths, and the inversion
        # every shape of its leg from them; both equal the plain sums
        n = 6
        dense = random_functional(AB, n, 31)
        values = {w: dense.value(w) for w in dense.words() if len(w) not in (1, 3)}
        kappa = Functional(AB, n, values)
        calls = self._counted_products(monkeypatch)
        phi = moments_from(kind, kappa)
        assert {w: phi.value(w) for w in phi.words()} == _plain_sum(kappa, kind, "moment")
        assert len(calls) == self._leg_products((kind, "moment"), kappa)
        beta = convert(CumulantFamily("moment", phi), "boolean").data
        assert not any(beta._rows[1]) and not any(beta._rows[3])
        calls.clear()
        assert cumulants_from_moments(kind, phi) == kappa
        assert len(calls) == self._leg_products(("moment", kind), phi)

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
