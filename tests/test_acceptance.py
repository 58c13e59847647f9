"""Acceptance suite: each test pins one exit criterion at exact rational
equality, prints a single pass/fail line with its elapsed time, and enforces
the runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 3 and 5-8 run the ``nccum verify`` suite that defines their checks,
at a fixed seed and order.  Criteria 1, 2, 4 and 9 check frozen anchors and
identities that no suite makes; the frozen tables live here, independent of
the copies in ``oracle``.
"""

import time
from fractions import Fraction
from math import comb

from nccumulants import cumulants, oracle, partitions, trees
from nccumulants.oracle import random_functional
from nccumulants.prelie import Functional, all_words

AB = ("a", "b")

# seeds for every randomized criterion, fixed for reproducibility; a suite
# draws its inputs from consecutive seeds starting at the one it is given
SEED_MAGNUS = 42
SEED_ROUNDTRIPS = 44
SEED_PRELIE = 7

# frozen omega values: all seventeen trees with at most five vertices
OMEGA_EXPECTED = {
    "[]": "1",
    "[[]]": "-1/2",
    "[[[]]]": "1/3",
    "[[][]]": "1/6",
    "[[[][]]]": "-1/6",
    "[[[[]]]]": "-1/4",
    "[[][[]]]": "-1/12",
    "[[][][]]": "0",
    "[[][][][]]": "-1/30",
    "[[[][][]]]": "1/30",
    "[[[]][[]]]": "1/30",
    "[[][[][]]]": "1/60",
    "[[[[[]]]]]": "1/5",
    "[[][[[]]]]": "1/20",
    "[[[[][]]]]": "3/20",
    "[[[][[]]]]": "1/10",
    "[[][][[]]]": "-1/60",
}

# frozen monotone-from-free coefficient tables at orders 1..5
EXPANSION_EXPECTED = {
    1: {"{{1}}": "1"},
    2: {"{{1,2}}": "1"},
    3: {"{{1,2,3}}": "1", "{{1,3},{2}}": "1/2"},
    4: {
        "{{1,2,3,4}}": "1",
        "{{1,4},{2,3}}": "1/2",
        "{{1,3,4},{2}}": "1/2",
        "{{1,2,4},{3}}": "1/2",
        "{{1,4},{2},{3}}": "1/6",
    },
    5: {
        "{{1,2,3,4,5}}": "1",
        "{{1,5},{2,3,4}}": "1/2",
        "{{1,4,5},{2,3}}": "1/2",
        "{{1,2,5},{3,4}}": "1/2",
        "{{1,3,4,5},{2}}": "1/2",
        "{{1,2,4,5},{3}}": "1/2",
        "{{1,2,3,5},{4}}": "1/2",
        "{{1,4,5},{2},{3}}": "1/6",
        "{{1,3,5},{2},{4}}": "1/6",
        "{{1,2,5},{3},{4}}": "1/6",
        "{{1,5},{2,3},{4}}": "1/6",
        "{{1,5},{2},{3,4}}": "1/6",
        "{{1,5},{2,4},{3}}": "1/3",
        "{{1,5},{2},{3},{4}}": "0",
    },
}

# the four worked single-leaf-removal instances: tree, removal multiset, value
KREIMER_INSTANCES = [
    ("[[][]]", ["[[]]", "[[]]"], Fraction(1)),
    ("[[[]][]]", ["[[][]]", "[[[]]]"], Fraction(1, 2)),
    ("[[[][]]]", ["[[[]]]", "[[[]]]"], Fraction(1, 3)),
    ("[[[]][][]]", ["[[[]][]]", "[[[]][]]", "[[][][]]"], Fraction(1, 2)),
]


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _suite_failures(name, **sizes):
    # criteria 3 and 5-8 run the verify suite that defines their checks
    reports = oracle.run_suite(name, **sizes)
    assert reports, name
    return [r for r in reports if r["status"] != "pass"]


def _finish(num, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < budget
    print(
        f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
        f" ({elapsed:.2f}s / budget {budget:.0f}s)"
    )
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"
    assert elapsed < budget, (
        f"criterion {num} ({name}) exceeded its budget: {elapsed:.2f}s >= {budget}s"
    )


def test_criterion_1_omega_table():
    started = time.perf_counter()
    failures = []
    for enc, expected in OMEGA_EXPECTED.items():
        got = trees.omega(trees.parse_tree(enc))
        if got != Fraction(expected):
            failures.append((enc, expected, str(got)))
    # the table is exactly the census of trees with at most five vertices
    if {t.encoding for t in trees.trees_up_to(5)} != set(OMEGA_EXPECTED):
        failures.append("table does not cover the five-vertex census")
    _finish(1, "omega table reproduction", 1.0, started, failures)


def test_criterion_2_omega_dual_computation():
    started = time.perf_counter()
    failures = []
    for n in range(1, 8):
        for p in partitions.enumerate_nc_irr(n):
            tree = partitions.nesting_forest(p).trees[0]
            if oracle.omega_recursive(p) != trees.omega(tree):
                failures.append(p.text())
    _finish(2, "omega dual computation", 30.0, started, failures)


def test_criterion_3_kreimer_identity():
    started = time.perf_counter()
    failures = _suite_failures("kreimer")
    for enc, removals, value in KREIMER_INSTANCES:
        t = trees.parse_tree(enc)
        got = sorted(r.encoding for r in trees.leaf_removals(t))
        want = sorted(trees.parse_tree(r).encoding for r in removals)
        if got != want:
            failures.append(("removals", enc, got))
        if Fraction(t.size, trees.tree_factorial(t)) != value:
            failures.append(("value", enc))
    _finish(3, "single-leaf-removal identity", 10.0, started, failures)


def test_criterion_4_low_order_expansions():
    started = time.perf_counter()
    failures = []
    for m, expected in EXPANSION_EXPECTED.items():
        rows = {
            p.text(): str(c)
            for p, c in cumulants.expansion_terms("free", "monotone", m)
        }
        if rows != expected:
            failures.append((m, rows))
    # the same coefficients drive the conversion numerically
    kappa = random_functional(AB, 5, SEED_ROUNDTRIPS)
    rho = cumulants.monotone_from_free(kappa)
    for w in all_words(AB, 5):
        total = Fraction(0)
        for text, coeff in EXPANSION_EXPECTED[len(w)].items():
            term = Fraction(coeff)
            if not term:
                continue
            for block in partitions.NCPartition.from_text(text).blocks:
                term *= kappa.value(tuple(w[i - 1] for i in block))
            total += term
        if rho.value(w) != total:
            failures.append(("numeric", w))
    _finish(4, "low-order expansion coefficients", 1.0, started, failures)


def test_criterion_5_magnus_vs_closed():
    started = time.perf_counter()
    failures = _suite_failures("magnus-closed", seed=SEED_MAGNUS, max_order=7)
    _finish(5, "fixed point equals closed sum", 120.0, started, failures)


def test_criterion_6_round_trips():
    started = time.perf_counter()
    failures = _suite_failures("roundtrips", seed=SEED_ROUNDTRIPS, max_order=7)
    _finish(6, "conversion round trips", 60.0, started, failures)


def test_criterion_7_prelie_identity_and_univariate():
    started = time.perf_counter()
    failures = _suite_failures("prelie", seed=SEED_PRELIE, max_order=7)
    _finish(7, "pre-Lie identity and univariate product", 30.0, started, failures)


def test_criterion_8_counting_cross_checks():
    started = time.perf_counter()
    failures = _suite_failures("counts", max_order=7)
    _finish(8, "counting cross checks", 60.0, started, failures)


def test_criterion_9_known_distribution():
    started = time.perf_counter()
    failures = []
    kappa = Functional(("a",), 10, {("a", "a"): 1})
    phi = cumulants.moments_from("free", kappa)
    for k in range(1, 6):
        if phi.value(("a",) * (2 * k)) != _catalan(k):
            failures.append(f"even moment {2 * k}")
        if phi.value(("a",) * (2 * k - 1)) != 0:
            failures.append(f"odd moment {2 * k - 1}")
    _finish(9, "pair cumulant gives Catalan moments", 1.0, started, failures)
