import json
from fractions import Fraction
from functools import lru_cache

import pytest

from nccumulants import cumulants, oracle, partitions, prelie, trees
from nccumulants.cumulants import CumulantFamily
from nccumulants.oracle import (
    OMEGA_TABLE,
    brute_enumerate_nc,
    brute_monotone_orders,
    brute_quasi_orders,
    check_magnus_vs_closed,
    check_prelie_identity,
    random_functional,
    run_suite,
)
from nccumulants.partitions import NCPartition, enumerate_nc
from nccumulants.prelie import Functional
from nccumulants.trees import parse_tree


# every check of ``nccum verify --suite all``, in report order
ALL_CHECKS = [
    "omega-table",
    "kreimer-leaf-removal",
    "prelie-identity",
    "univariate-product-formula",
    "magnus-vs-closed-2-letter",
    "magnus-vs-closed-1-letter",
    "free-monotone-free",
    "monotone-free-monotone",
    "boolean-monotone-boolean",
    "monotone-boolean-monotone",
    "free-boolean-free",
    "boolean-free-boolean",
    "free-moments-free",
    "moments-free-moments",
    "boolean-moments-boolean",
    "moments-boolean-moments",
    "monotone-moments-monotone",
    "moments-monotone-moments",
    "catalan-counts",
    "monotone-count-vs-brute",
    "omega-k-vs-brute",
    "monotone-enumeration-total",
]


def _off_by_one(original):
    return lambda *args: original(*args) + 1


def _drop_first(original):
    return lambda *args: original(*args)[1:]


def _plus_a(f):
    # f with 1 added on the word "a"
    return f + Functional(f.alphabet, f.max_order, {("a",): 1})


def _plus_left(product):
    # (x |> y) + x: the identity's two sides then differ by a |> c - b |> c
    return lambda x, y: product(x, y) + x


def _convert_plus_a(convert):
    return lambda family, kind: CumulantFamily(
        kind, _plus_a(convert(family, kind).data)
    )


# for each check: its suite, and the library function it reads at call time
# with a corruption that must make it fail.  No memoized function reaches a
# corrupted one while its suite runs, so no wrong value outlives the test.
CORRUPTIONS = {
    "omega-table": ("tables", trees, "omega", _off_by_one),
    "kreimer-leaf-removal": ("kreimer", trees, "leaf_removals", _drop_first),
    "prelie-identity": ("prelie", prelie, "prelie_product", _plus_left),
    "univariate-product-formula": ("prelie", prelie, "prelie_product", _plus_left),
    **{
        check: ("magnus-closed", prelie, "magnus", lambda m: lambda k: _plus_a(m(k)))
        for check in ALL_CHECKS[4:6]
    },
    **{
        check: ("roundtrips", cumulants, "convert", _convert_plus_a)
        for check in ALL_CHECKS[6:18]
    },
    "catalan-counts": ("counts", partitions, "enumerate_nc", _drop_first),
    "monotone-count-vs-brute": (
        "counts", partitions, "monotone_count_partition", _off_by_one
    ),
    "omega-k-vs-brute": ("counts", trees, "omega_k", _off_by_one),
    "monotone-enumeration-total": (
        "counts", partitions, "enumerate_monotone_irr", _drop_first
    ),
}


class TestBruteEnumeration:
    def test_small_counts(self):
        assert len(brute_enumerate_nc(1)) == 1
        assert len(brute_enumerate_nc(3)) == 5
        assert len(brute_enumerate_nc(4)) == 14

    def test_crossing_detector(self):
        assert oracle._blocks_cross((1, 3), (2, 4))
        assert not oracle._blocks_cross((1, 4), (2, 3))
        assert not oracle._blocks_cross((1, 2), (3, 4))

    def test_unique_crossing_partition_of_four(self):
        # Bell(4) = 15 set partitions; only {{1,3},{2,4}} crosses
        seen = list(oracle._set_partitions([1, 2, 3, 4]))
        assert len(seen) == 15
        crossing = [blocks for blocks in seen if oracle._any_crossing(blocks)]
        assert len(crossing) == 1
        assert sorted(tuple(sorted(b)) for b in crossing[0]) == [(1, 3), (2, 4)]

    def test_matches_fast_enumeration(self):
        for n in range(1, 7):
            assert set(brute_enumerate_nc(n)) == set(enumerate_nc(n))

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_enumerate_nc(9)
        with pytest.raises(ValueError):
            brute_enumerate_nc(0)


class TestBruteCounts:
    def test_quasi_orders_examples(self):
        assert brute_quasi_orders(parse_tree("[]"), 1) == 1
        assert brute_quasi_orders(parse_tree("[[]]"), 2) == 1
        assert brute_quasi_orders(parse_tree("[[]]"), 1) == 0
        assert brute_quasi_orders(parse_tree("[[][]]"), 3) == 2
        assert brute_quasi_orders(parse_tree("[[][]]"), 0) == 0

    def test_quasi_orders_guard(self):
        with pytest.raises(ValueError):
            brute_quasi_orders(parse_tree("[" + "[]" * 8 + "]"), 2)

    def test_monotone_orders_examples(self):
        assert brute_monotone_orders(NCPartition([[1, 2]])) == 1
        assert brute_monotone_orders(NCPartition([[1, 3, 5], [2], [4]])) == 2
        assert brute_monotone_orders(NCPartition([[1, 5], [2, 4], [3]])) == 1

    def test_monotone_orders_guard(self):
        with pytest.raises(ValueError):
            brute_monotone_orders(NCPartition.discrete(9))


class TestRandomFunctional:
    def test_deterministic(self):
        f = random_functional(("a", "b"), 3, 42)
        g = random_functional(("a", "b"), 3, 42)
        assert f == g
        assert f != random_functional(("a", "b"), 3, 43)

    def test_value_ranges(self):
        f = random_functional(("a",), 6, 1)
        for w in f.words():
            v = f.value(w)
            assert abs(v) <= 9
            assert v.denominator in (1, 2, 3, 5)


class TestOmegaRecursiveCache:
    def test_cache_size(self, monkeypatch):
        # _omega_rec keeps one entry per distinct partition it reaches,
        # relabeled onto {1..n}: here the partition itself, the component
        # {{1,3},{2}} that both inner pairs standardize to, {{1,2}} and {{1}}
        original = oracle._omega_rec.__wrapped__
        monkeypatch.setattr(oracle, "_omega_rec", lru_cache(maxsize=None)(original))
        p = NCPartition([[1, 8], [2, 4], [3], [5, 7], [6]])
        assert oracle.omega_recursive(p) == Fraction(1, 30)
        assert oracle._omega_rec.cache_info().currsize == 4


class TestChecks:
    def test_magnus_vs_closed_zero(self):
        report = check_magnus_vs_closed(Functional(("a", "b"), 4))
        assert report["status"] == "pass"

    def test_magnus_vs_closed_guards(self):
        with pytest.raises(ValueError):
            check_magnus_vs_closed(Functional(("a", "b"), 8))
        with pytest.raises(ValueError):
            check_magnus_vs_closed(Functional(("a",), 10))

    def test_prelie_identity_guard(self):
        f = Functional(("a",), 8)
        with pytest.raises(ValueError):
            check_prelie_identity(f, f, f)

    def test_compare_reports_counterexample(self):
        f = Functional(("a",), 2, {("a",): 1})
        g = Functional(("a",), 2)
        report = oracle._compare_functionals("demo", f, g)
        assert report["status"] == "fail"
        assert report["counterexample"] == {"word": "a", "lhs": "1", "rhs": "0"}


class TestSuites:
    def test_omega_table_is_complete(self):
        # one frozen value for every tree with at most five vertices
        from nccumulants.trees import trees_up_to

        assert len(OMEGA_TABLE) == 17
        assert {enc for enc, _ in OMEGA_TABLE} == {
            t.encoding for t in trees_up_to(5)
        }

    @pytest.mark.parametrize("name", sorted(oracle.SUITES))
    def test_each_suite_passes(self, name):
        reports = run_suite(name, seed=42, max_order=5)
        assert reports
        for report in reports:
            assert report["status"] == "pass", report

    def test_run_all(self):
        reports = run_suite("all", seed=42, max_order=4)
        assert len(reports) >= 6
        assert all(r["status"] == "pass" for r in reports)

    def test_roundtrip_check_names(self):
        # the report names and their order, which the verify report prints
        names = [r["check"] for r in run_suite("all", max_order=3)]
        assert names == ALL_CHECKS

    @pytest.mark.parametrize("max_order, n", [(2, 2), (8, 7)])
    def test_counts_sizes(self, max_order, n, monkeypatch):
        # n = min(max_order, 7): monotone counts on NC(m) for m <= n,
        # quasi-orders on trees with at most n vertices, and the enumeration
        # total for 2 <= m <= n + 1
        sizes = {}

        def record(module, name, size):
            original = getattr(module, name)

            def wrapper(*args):
                sizes.setdefault(name, set()).add(size(*args))
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        record(oracle, "brute_monotone_orders", lambda p: p.size)
        record(oracle, "brute_quasi_orders", lambda t, k: t.size)
        record(partitions, "enumerate_monotone_irr", lambda m, k: m)
        reports = oracle.suite_counts(max_order=max_order)
        assert all(r["status"] == "pass" for r in reports)
        assert sizes == {
            "brute_monotone_orders": set(range(1, n + 1)),
            "brute_quasi_orders": set(range(1, n + 1)),
            "enumerate_monotone_irr": set(range(2, n + 2)),
        }

    @pytest.mark.parametrize("seed, max_order", [(42, 9), (7, 5)])
    def test_magnus_closed_inputs(self, seed, max_order, monkeypatch):
        # the identity holds on any input, so only the inputs show which
        # seed and order the suite drew them from
        drawn = []

        def record(kappa):
            drawn.append(kappa)
            return {}

        monkeypatch.setattr(oracle, "check_magnus_vs_closed", record)
        oracle.suite_magnus_closed(seed=seed, max_order=max_order)
        assert drawn == [
            random_functional(("a", "b"), min(max_order, 7), seed),
            random_functional(("a",), 9, seed + 1),
        ]

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_each_check_reports_a_failure(self, check, monkeypatch):
        suite, module, name, corrupt = CORRUPTIONS[check]
        monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
        (report,) = [r for r in run_suite(suite, max_order=3) if r["check"] == check]
        assert report["status"] == "fail"
        assert report["counterexample"]
        json.dumps(report["counterexample"])

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("nope")
