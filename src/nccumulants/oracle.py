"""Deliberately naive reference implementations and the verification suites.

Everything here trades speed for independence: set partitions are generated
exhaustively and filtered by the literal four-point crossing condition,
labelings and quasi-order counts are enumerated one by one, ``omega`` is
recomputed by a Bernoulli-number recursion over block subsets, and the
closed partition-sum conversions are compared word-by-word against the
fixed-point expansions.  Hard size guards refuse inputs where exhaustion
would crawl.

Checks return report dicts {"check": name, "status": "pass"|"fail"} with a
"counterexample" entry on failure; they never raise on a mismatch.

One memo cache is kept, unbounded, for the life of the process:
``_omega_rec``, keyed on a partition's blocks relabeled onto {1..n}.  It
holds one ``Fraction`` per distinct irreducible partition reached, that is,
each partition checked and the components its recursion splits off, so it
grows at most to the irreducible partitions of each size checked
(Catalan(n - 1) of size n).
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb

from . import cumulants, partitions, prelie, trees
from .partitions import NCPartition
from .prelie import Functional

SET_PARTITION_LIMIT = 8
QUASI_ORDER_LIMIT = 7
MONOTONE_ORDER_LIMIT = 8

# omega values for every tree with at most five vertices, frozen
OMEGA_TABLE = (
    ("[]", "1"),
    ("[[]]", "-1/2"),
    ("[[[]]]", "1/3"),
    ("[[][]]", "1/6"),
    ("[[[][]]]", "-1/6"),
    ("[[[[]]]]", "-1/4"),
    ("[[][[]]]", "-1/12"),
    ("[[][][]]", "0"),
    ("[[][][][]]", "-1/30"),
    ("[[[][][]]]", "1/30"),
    ("[[[]][[]]]", "1/30"),
    ("[[][[][]]]", "1/60"),
    ("[[[[[]]]]]", "1/5"),
    ("[[][[[]]]]", "1/20"),
    ("[[[[][]]]]", "3/20"),
    ("[[[][[]]]]", "1/10"),
    ("[[][][[]]]", "-1/60"),
)


def brute_enumerate_nc(n):
    """All non-crossing partitions of [n] by filtering every set partition
    with the four-point crossing test.  Refuses n > 8."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    if n > SET_PARTITION_LIMIT:
        raise ValueError(f"brute_enumerate_nc refuses n > {SET_PARTITION_LIMIT}")
    out = []
    for blocks in _set_partitions(list(range(1, n + 1))):
        if not _any_crossing(blocks):
            out.append(NCPartition(blocks))
    return out


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def _any_crossing(blocks):
    for u in range(len(blocks)):
        for v in range(u + 1, len(blocks)):
            if _blocks_cross(blocks[u], blocks[v]):
                return True
    return False


def _blocks_cross(b1, b2):
    return any(
        a < b < c < d
        for a in b1
        for c in b1
        if a < c
        for b in b2
        for d in b2
        if b < d
    )


def brute_quasi_orders(t, k):
    """Count surjections of the vertices of ``t`` onto {1..k} that strictly
    increase along every root-to-leaf edge, by direct enumeration.
    Refuses trees with more than 7 vertices."""
    if t.size > QUASI_ORDER_LIMIT:
        raise ValueError(f"brute_quasi_orders refuses |t| > {QUASI_ORDER_LIMIT}")
    if k < 1:
        return 0
    parent = []

    def flatten(node, par):
        idx = len(parent)
        parent.append(par)
        for child in node.children:
            flatten(child, idx)

    flatten(t, -1)
    n = len(parent)
    values = [0] * n
    count = 0

    def assign(i, used):
        nonlocal count
        missing = k - len(used)
        if missing > n - i:
            return
        if i == n:
            count += 1
            return
        lo = values[parent[i]] + 1 if parent[i] >= 0 else 1
        for v in range(lo, k + 1):
            values[i] = v
            assign(i + 1, used | {v})

    assign(0, frozenset())
    return count


def brute_monotone_orders(p):
    """Count bijective block labelings of ``p`` refining nesting, one
    permutation at a time.  Refuses more than 8 blocks."""
    k = p.num_blocks
    if k > MONOTONE_ORDER_LIMIT:
        raise ValueError(
            f"brute_monotone_orders refuses |pi| > {MONOTONE_ORDER_LIMIT}"
        )
    blocks = p.blocks
    nested_pairs = [
        (i, j)
        for i in range(k)
        for j in range(k)
        if i != j and blocks[i][0] < blocks[j][0] and blocks[j][-1] < blocks[i][-1]
    ]
    count = 0
    for labels in permutations(range(1, k + 1)):
        if all(labels[i] < labels[j] for i, j in nested_pairs):
            count += 1
    return count


def omega_recursive(p):
    """Recompute omega for an irreducible partition from its block structure.

    Drops the outer block and sums, over every subset V of the remaining
    blocks that contains all of their outermost ones, the Bernoulli number
    B_|V| divided by the forest factorial of the partition V spans, times
    the product of the values on the V-rooted components.  Grounds out at 1
    on a single block.  Must agree with ``trees.omega`` of the nesting tree.
    """
    if not p.is_irreducible():
        raise ValueError("omega_recursive requires an irreducible partition")
    return _omega_rec(_standard_key(p))


@lru_cache(maxsize=None)
def _omega_rec(blocks):
    # `blocks` is a partition relabeled onto {1..n}; omega depends only on
    # the relative order of the labels
    inner = NCPartition(blocks[1:])
    total = Fraction(0)
    for subset in partitions.sub_families(inner):
        nu, comps = partitions.v_components(subset)
        term = trees.bernoulli(len(subset.selected)) / trees.forest_factorial(
            partitions.nesting_forest(nu)
        )
        for comp in comps:
            term *= _omega_rec(_standard_key(comp))
        total += term
    return total


def _standard_key(p):
    rank = {x: i + 1 for i, x in enumerate(p.ground)}
    return tuple(tuple(rank[x] for x in b) for b in p.blocks)


def random_functional(alphabet, max_order, seed):
    """A reproducible random functional: numerators uniform in [-9, 9],
    denominators drawn from {1, 2, 3, 5}."""
    rng = random.Random(seed)
    values = {
        w: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        for w in prelie.all_words(alphabet, max_order)
    }
    return Functional(alphabet, max_order, values)


def check_magnus_vs_closed(kappa):
    """Word-by-word comparison of the fixed-point expansion against the
    closed partition sum for the monotone-from-free conversion."""
    limit = 9 if len(kappa.alphabet) == 1 else 7
    if kappa.max_order > limit:
        raise ValueError(
            f"check_magnus_vs_closed refuses max_order > {limit} on a"
            f" {len(kappa.alphabet)}-letter alphabet"
        )
    lhs = prelie.magnus(kappa)
    rhs = cumulants.monotone_from_free(kappa)
    return _compare_functionals("magnus-vs-closed", lhs, rhs)


def check_prelie_identity(a, b, c):
    """Exact verification of the left pre-Lie identity on every word:
    a |> (b |> c) - (a |> b) |> c is symmetric in a and b."""
    if a.max_order > 7:
        raise ValueError("check_prelie_identity refuses max_order > 7")
    pp = prelie.prelie_product
    lhs = pp(a, pp(b, c)) - pp(pp(a, b), c)
    rhs = pp(b, pp(a, c)) - pp(pp(b, a), c)
    return _compare_functionals("prelie-identity", lhs, rhs)


def _compare_functionals(name, lhs, rhs):
    for w in lhs.words():
        lv, rv = lhs.value(w), rhs.value(w)
        if lv != rv:
            counterexample = {
                "word": prelie.word_text(w),
                "lhs": str(lv),
                "rhs": str(rv),
            }
            return {"check": name, "status": "fail", "counterexample": counterexample}
    return {"check": name, "status": "pass"}


def _bool_report(name, ok, counterexample=None):
    if ok:
        return {"check": name, "status": "pass"}
    return {"check": name, "status": "fail", "counterexample": counterexample or {}}


# ---------------------------------------------------------------------------
# verification suites exposed through the command line


def suite_tables(seed=42, max_order=6):
    """Reproduce the frozen omega values for all trees up to five vertices."""
    mismatches = []
    for enc, expected in OMEGA_TABLE:
        got = trees.omega(trees.parse_tree(enc))
        if got != Fraction(expected):
            mismatches.append({"tree": enc, "expected": expected, "got": str(got)})
    return [
        _bool_report(
            "omega-table",
            not mismatches,
            {"mismatches": mismatches} if mismatches else None,
        )
    ]


def suite_kreimer(seed=42, max_order=6):
    """|t|/t! equals the sum of 1/t'! over single-leaf removals, for every
    tree with 2..8 vertices."""
    mismatches = []
    for t in trees.trees_up_to(8):
        if t.size < 2:
            continue
        lhs = Fraction(t.size, trees.tree_factorial(t))
        rhs = sum(
            (Fraction(1, trees.tree_factorial(r)) for r in trees.leaf_removals(t)),
            Fraction(0),
        )
        if lhs != rhs:
            mismatches.append({"tree": t.encoding, "lhs": str(lhs), "rhs": str(rhs)})
    return [
        _bool_report(
            "kreimer-leaf-removal",
            not mismatches,
            {"mismatches": mismatches} if mismatches else None,
        )
    ]


def suite_prelie(seed=7, max_order=6):
    """Left pre-Lie identity on random two-letter functionals, plus the
    closed one-letter product formula up to exponent 10."""
    n = min(max_order, 7)
    a = random_functional(("a", "b"), n, seed)
    b = random_functional(("a", "b"), n, seed + 1)
    c = random_functional(("a", "b"), n, seed + 2)
    reports = [check_prelie_identity(a, b, c)]

    alpha = random_functional(("a",), 10, seed + 3)
    beta = random_functional(("a",), 10, seed + 4)
    prod = prelie.prelie_product(alpha, beta)
    bad = None
    for m in range(1, 11):
        w = ("a",) * m
        closed = -sum(
            ((m - l - 1) * beta.value(("a",) * (m - l)) * alpha.value(("a",) * l)
             for l in range(1, m - 1)),
            Fraction(0),
        )
        if prod.value(w) != closed:
            bad = {"word": "a" * m, "product": str(prod.value(w)), "closed": str(closed)}
            break
    reports.append(_bool_report("univariate-product-formula", bad is None, bad))
    return reports


def suite_magnus_closed(seed=42, max_order=6):
    """Fixed-point expansion vs closed partition sum, two-letter and
    one-letter alphabets."""
    kappa2 = random_functional(("a", "b"), min(max_order, 7), seed)
    kappa1 = random_functional(("a",), 9, seed + 1)
    r1 = check_magnus_vs_closed(kappa2)
    r1["check"] = "magnus-vs-closed-2-letter"
    r2 = check_magnus_vs_closed(kappa1)
    r2["check"] = "magnus-vs-closed-1-letter"
    return [r1, r2]


# each pair of kinds, converted both ways in turn, in report order
_ROUNDTRIP_PAIRS = (
    ("free", "monotone"), ("boolean", "monotone"), ("free", "boolean"),
    ("free", "moment"), ("boolean", "moment"), ("monotone", "moment"),
)


def suite_roundtrips(seed=42, max_order=6):
    """Mutual inversion of every conversion pair on random functionals."""
    n = min(max_order, 7)
    alphabet = ("a", "b")
    inputs = {
        kind: random_functional(alphabet, n, seed + i)
        for i, kind in enumerate(("free", "monotone", "boolean", "moment"))
    }
    reports = []
    for pair in _ROUNDTRIP_PAIRS:
        for x, y in (pair, pair[::-1]):
            family = cumulants.CumulantFamily(x, inputs[x])
            back = cumulants.convert(cumulants.convert(family, y), x)
            name = "-".join("moments" if k == "moment" else k for k in (x, y, x))
            reports.append(_compare_functionals(name, back.data, inputs[x]))
    return reports


def suite_counts(seed=42, max_order=6):
    """Catalan counts for n <= 10, labeling counts against exhaustive
    oracles, and the monotone enumeration total.

    The other checks take their size from n = min(max_order, 7), the largest
    tree the quasi-order oracle accepts: monotone counts on NC(m) for
    m <= n, quasi-order counts on trees with at most n vertices, and the
    enumeration total for 2 <= m <= n + 1.
    """
    if max_order < 1:
        raise ValueError("max_order must be a positive integer")
    n = min(max_order, QUASI_ORDER_LIMIT)
    reports = []

    bad = None
    for m in range(1, 11):
        catalan = _catalan(m)
        if len(partitions.enumerate_nc(m)) != catalan:
            bad = {"n": m, "expected": catalan}
            break
        if len(partitions.enumerate_nc_irr(m)) != _catalan(m - 1):
            bad = {"n": m, "expected_irr": _catalan(m - 1)}
            break
    reports.append(_bool_report("catalan-counts", bad is None, bad))

    bad = None
    for m in range(1, n + 1):
        for p in partitions.enumerate_nc(m):
            if partitions.monotone_count_partition(p) != brute_monotone_orders(p):
                bad = {"partition": p.text()}
                break
        if bad:
            break
    reports.append(_bool_report("monotone-count-vs-brute", bad is None, bad))

    bad = None
    for t in trees.trees_up_to(n):
        for k in range(1, t.size + 1):
            if trees.omega_k(t, k) != brute_quasi_orders(t, k):
                bad = {"tree": t.encoding, "k": k}
                break
        if bad:
            break
    reports.append(_bool_report("omega-k-vs-brute", bad is None, bad))

    bad = None
    for m in range(2, n + 2):
        total = sum(
            len(partitions.enumerate_monotone_irr(m, k)) for k in range(1, m + 1)
        )
        expected = sum(
            partitions.monotone_count_partition(p)
            for p in partitions.enumerate_nc_irr(m)
        )
        if total != expected:
            bad = {"n": m, "enumerated": total, "expected": expected}
            break
    reports.append(_bool_report("monotone-enumeration-total", bad is None, bad))
    return reports


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


SUITES = {
    "tables": suite_tables,
    "kreimer": suite_kreimer,
    "prelie": suite_prelie,
    "magnus-closed": suite_magnus_closed,
    "roundtrips": suite_roundtrips,
    "counts": suite_counts,
}


def run_suite(name, seed=42, max_order=6):
    """Run one named suite, or all of them; returns the list of reports."""
    if name == "all":
        reports = []
        for suite in SUITES.values():
            reports.extend(suite(seed=seed, max_order=max_order))
        return reports
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)} or 'all'"
        ) from None
    return suite(seed=seed, max_order=max_order)
