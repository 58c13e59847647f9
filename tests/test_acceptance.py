"""Acceptance suite: each test pins one exit criterion at exact rational
equality, prints a single pass/fail line with its elapsed time, and enforces
the runtime budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction
from math import comb

from nccumulants import cumulants, oracle, partitions, prelie, trees
from nccumulants.oracle import random_functional
from nccumulants.prelie import Functional, all_words

AB = ("a", "b")

# seeds for every randomized criterion, fixed for reproducibility
SEED_MAGNUS_2LETTER = 42
SEED_MAGNUS_1LETTER = 43
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
    failures = []
    for t in trees.trees_up_to(8):
        if t.size < 2:
            continue
        lhs = Fraction(t.size, trees.tree_factorial(t))
        rhs = sum(
            (Fraction(1, trees.tree_factorial(r)) for r in trees.leaf_removals(t)),
            Fraction(0),
        )
        if lhs != rhs:
            failures.append(t.encoding)
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
    failures = []
    kappa2 = random_functional(AB, 7, SEED_MAGNUS_2LETTER)
    lhs, rhs = prelie.magnus(kappa2), cumulants.monotone_from_free(kappa2)
    for w in lhs.words():
        if lhs.value(w) != rhs.value(w):
            failures.append(("2-letter", w))
            break
    kappa1 = random_functional(("a",), 9, SEED_MAGNUS_1LETTER)
    lhs, rhs = prelie.magnus(kappa1), cumulants.monotone_from_free(kappa1)
    for w in lhs.words():
        if lhs.value(w) != rhs.value(w):
            failures.append(("1-letter", w))
            break
    _finish(5, "fixed point equals closed sum", 120.0, started, failures)


def test_criterion_6_round_trips():
    started = time.perf_counter()
    failures = []
    kappa = random_functional(AB, 7, SEED_ROUNDTRIPS)
    rho = random_functional(AB, 7, SEED_ROUNDTRIPS + 1)
    beta = random_functional(AB, 7, SEED_ROUNDTRIPS + 2)
    phi = random_functional(AB, 7, SEED_ROUNDTRIPS + 3)
    pairs = [
        ("free->monotone->free", cumulants.free_from_monotone(
            cumulants.monotone_from_free(kappa)), kappa),
        ("monotone->free->monotone", cumulants.monotone_from_free(
            cumulants.free_from_monotone(rho)), rho),
        ("boolean->monotone->boolean", cumulants.boolean_from_monotone(
            cumulants.monotone_from_boolean(beta)), beta),
        ("monotone->boolean->monotone", cumulants.monotone_from_boolean(
            cumulants.boolean_from_monotone(rho)), rho),
        ("free->boolean->free", cumulants.free_from_boolean(
            cumulants.boolean_from_free(kappa)), kappa),
        ("boolean->free->boolean", cumulants.boolean_from_free(
            cumulants.free_from_boolean(beta)), beta),
    ]
    for kind in cumulants.CUMULANT_KINDS:
        pairs.append(
            (
                f"{kind}: cumulants->moments->cumulants",
                cumulants.cumulants_from_moments(
                    kind, cumulants.moments_from(kind, kappa)
                ),
                kappa,
            )
        )
        pairs.append(
            (
                f"{kind}: moments->cumulants->moments",
                cumulants.moments_from(
                    kind, cumulants.cumulants_from_moments(kind, phi)
                ),
                phi,
            )
        )
    for name, got, want in pairs:
        if got != want:
            failures.append(name)
    _finish(6, "conversion round trips", 60.0, started, failures)


def test_criterion_7_prelie_identity_and_univariate():
    started = time.perf_counter()
    failures = []
    a = random_functional(AB, 7, SEED_PRELIE)
    b = random_functional(AB, 7, SEED_PRELIE + 1)
    c = random_functional(AB, 7, SEED_PRELIE + 2)
    pp = prelie.prelie_product
    lhs = pp(a, pp(b, c)) - pp(pp(a, b), c)
    rhs = pp(b, pp(a, c)) - pp(pp(b, a), c)
    if lhs != rhs:
        failures.append("pre-Lie identity")
    alpha = random_functional(("a",), 10, SEED_PRELIE + 3)
    beta = random_functional(("a",), 10, SEED_PRELIE + 4)
    prod = pp(alpha, beta)
    for n in range(1, 11):
        closed = -sum(
            (
                (n - l - 1) * beta.value(("a",) * (n - l)) * alpha.value(("a",) * l)
                for l in range(1, n - 1)
            ),
            Fraction(0),
        )
        if prod.value(("a",) * n) != closed:
            failures.append(f"univariate formula at n={n}")
    _finish(7, "pre-Lie identity and univariate product", 30.0, started, failures)


def test_criterion_8_counting_cross_checks():
    started = time.perf_counter()
    failures = []
    for n in range(1, 11):
        if len(partitions.enumerate_nc(n)) != _catalan(n):
            failures.append(f"NC({n})")
        if len(partitions.enumerate_nc_irr(n)) != _catalan(n - 1):
            failures.append(f"NC-irr({n})")
    for n in range(1, 8):
        for p in partitions.enumerate_nc(n):
            if partitions.monotone_count_partition(p) != oracle.brute_monotone_orders(p):
                failures.append(f"m({p.text()})")
    for t in trees.trees_up_to(7):
        for k in range(1, t.size + 1):
            if trees.omega_k(t, k) != oracle.brute_quasi_orders(t, k):
                failures.append(f"omega_{k}({t.encoding})")
    for n in range(2, 9):
        total = sum(
            len(partitions.enumerate_monotone_irr(n, k)) for k in range(1, n + 1)
        )
        expected = sum(
            partitions.monotone_count_partition(p)
            for p in partitions.enumerate_nc_irr(n)
        )
        if total != expected:
            failures.append(f"monotone total at n={n}")
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
