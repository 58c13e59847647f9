from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from nccumulants import trees
from nccumulants.trees import (
    Forest,
    RootedTree,
    TreeParseError,
    bernoulli,
    forest_factorial,
    leaf_removals,
    monotone_count,
    omega,
    omega_forest,
    omega_k,
    parse_tree,
    tree_factorial,
    trees_of_size,
    trees_up_to,
)
from nccumulants.oracle import omega_recursive
from nccumulants.partitions import NCPartition


def _depth(t):
    return 1 + max((_depth(c) for c in t.children), default=0)


def _leaves(t):
    if not t.children:
        return 1
    return sum(_leaves(c) for c in t.children)


def _flatten_parents(t):
    parent = []

    def walk(node, par):
        idx = len(parent)
        parent.append(par)
        for child in node.children:
            walk(child, idx)

    walk(t, -1)
    return parent


def _brute_linear_extensions(t):
    # labelings 1..n with every parent labeled below its children
    parent = _flatten_parents(t)
    n = len(parent)
    count = 0
    for labels in permutations(range(1, n + 1)):
        if all(parent[i] < 0 or labels[parent[i]] < labels[i] for i in range(n)):
            count += 1
    return count


def _graft_everywhere(t):
    # attach one new leaf at every vertex; independent census generator
    out = [RootedTree(t.children + (RootedTree(),))]
    for i, child in enumerate(t.children):
        rest = t.children[:i] + t.children[i + 1 :]
        for bigger in _graft_everywhere(child):
            out.append(RootedTree(rest + (bigger,)))
    return out


class TestCodec:
    def test_single_vertex(self):
        t = parse_tree("[]")
        assert t.size == 1 and not t.children

    def test_non_planarity(self):
        assert parse_tree("[[][[]]]") == parse_tree("[[[]][]]")
        assert parse_tree("[[][[]]]").encoding == parse_tree("[[[]][]]").encoding

    def test_cherry(self):
        t = parse_tree("[[][]]")
        assert t.size == 3
        assert len(t.children) == 2

    def test_roundtrip_is_canonical(self):
        for s in ("[]", "[[][]]", "[[[]][]]", "[[][][[]]]"):
            t = parse_tree(s)
            assert parse_tree(t.encoding) == t

    @pytest.mark.parametrize("bad", ["", "  ", "[", "]", "[[]", "[]]", "][", "x", "[a]"])
    def test_parse_errors(self, bad):
        with pytest.raises(TreeParseError):
            parse_tree(bad)

    def test_deep_nesting_refused(self):
        with pytest.raises(TreeParseError, match="nested deeper"):
            parse_tree("[" * 3000 + "]" * 3000)

    def test_nesting_at_depth_limit(self):
        # the ladder of d vertices: one labeling, of rank d
        d = trees._MAX_DEPTH
        t = parse_tree("[" * d + "]" * d)
        assert t.size == d and tree_factorial(t) == factorial(d)
        assert omega(t) == Fraction((-1) ** (d + 1), d)
        with pytest.raises(TreeParseError, match="nested deeper"):
            parse_tree("[" * (d + 1) + "]" * (d + 1))

    def test_parse_forest(self):
        f = trees.parse_forest("[[]][]")
        assert len(f.trees) == 2 and f.size == 3
        assert f.encoding in ("[[]][]", "[][[]]")
        with pytest.raises(TreeParseError):
            parse_tree("[[]][]")

    def test_immutability(self):
        t = parse_tree("[]")
        with pytest.raises(AttributeError):
            t.size = 5


class TestFactorials:
    @pytest.mark.parametrize(
        "enc,expected",
        [
            ("[]", 1),
            ("[[]]", 2),
            ("[[][]]", 3),
            ("[[[]]]", 6),
            ("[[[]][]]", 8),
            ("[[[][]]]", 12),
            ("[[[]][][]]", 10),
        ],
    )
    def test_tree_factorial(self, enc, expected):
        assert tree_factorial(parse_tree(enc)) == expected

    def test_forest_factorial(self):
        assert forest_factorial(Forest()) == 1
        assert forest_factorial(trees.parse_forest("[][]")) == 1
        assert forest_factorial(trees.parse_forest("[[]][[][]]")) == 6


class TestLeafRemovals:
    def test_ladder(self):
        assert [t.encoding for t in leaf_removals(parse_tree("[[]]"))] == ["[]"]

    def test_cherry(self):
        got = sorted(t.encoding for t in leaf_removals(parse_tree("[[][]]")))
        assert got == ["[[]]", "[[]]"]

    def test_mixed(self):
        got = sorted(t.encoding for t in leaf_removals(parse_tree("[[[]][]]")))
        assert got == sorted(["[[][]]", "[[[]]]"])

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            leaf_removals(parse_tree("[]"))

    def test_cardinality_is_leaf_count(self):
        for t in trees_up_to(6):
            if t.size >= 2:
                assert len(leaf_removals(t)) == _leaves(t)

    def test_kreimer_identity(self):
        for t in trees_up_to(6):
            if t.size < 2:
                continue
            lhs = Fraction(t.size, tree_factorial(t))
            rhs = sum(Fraction(1, tree_factorial(r)) for r in leaf_removals(t))
            assert lhs == rhs, t.encoding


class TestMonotoneCount:
    @pytest.mark.parametrize(
        "enc,expected", [("[]", 1), ("[[][]]", 2), ("[[[]]]", 1), ("[[][][]]", 6)]
    )
    def test_examples(self, enc, expected):
        assert monotone_count(parse_tree(enc)) == expected

    def test_against_brute_extensions(self):
        for t in trees_up_to(6):
            assert monotone_count(t) == _brute_linear_extensions(t), t.encoding


class TestOmega:
    def test_omega_k_examples(self):
        assert omega_k(parse_tree("[]"), 1) == 1
        ladder = parse_tree("[[]]")
        assert omega_k(ladder, 1) == 0
        assert omega_k(ladder, 2) == 1
        cherry = parse_tree("[[][]]")
        assert omega_k(cherry, 2) == 1
        assert omega_k(cherry, 3) == 2

    def test_omega_k_out_of_range(self):
        cherry = parse_tree("[[][]]")
        assert omega_k(cherry, 0) == 0
        assert omega_k(cherry, 4) == 0

    def test_omega_k_depth_and_top(self):
        for t in trees_up_to(6):
            d = _depth(t)
            for k in range(1, d):
                assert omega_k(t, k) == 0, (t.encoding, k)
            assert omega_k(t, t.size) == monotone_count(t), t.encoding

    @pytest.mark.parametrize(
        "enc,expected",
        [
            ("[]", "1"),
            ("[[]]", "-1/2"),
            ("[[[]]]", "1/3"),
            ("[[][]]", "1/6"),
            ("[[][][]]", "0"),
            ("[[][][][]]", "-1/30"),
            ("[[][[][]]]", "1/60"),
        ],
    )
    def test_omega_values(self, enc, expected):
        assert omega(parse_tree(enc)) == Fraction(expected)

    def test_omega_ladders(self):
        expected = [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
        enc = "[]"
        for want in expected:
            assert omega(parse_tree(enc)) == want
            enc = "[" + enc + "]"

    def test_omega_forest(self):
        assert omega_forest(Forest()) == 1
        assert omega_forest(trees.parse_forest("[][]")) == 1
        assert omega_forest(trees.parse_forest("[[]][[[]]]")) == Fraction(-1, 6)

    def test_cache_sizes(self, monkeypatch):
        # what the omega caches keep after the frozen-table suite: one omega
        # per tree called on and one count row per distinct subtree; here
        # the 17 trees up to five vertices, which are their own subtrees
        from nccumulants import oracle

        for name in ("omega", "_strict_counts"):
            original = getattr(trees, name).__wrapped__
            monkeypatch.setattr(trees, name, lru_cache(maxsize=None)(original))
        oracle.run_suite("tables")
        assert trees.omega.cache_info().currsize == 17
        assert trees._strict_counts.cache_info().currsize == 17


class TestOmegaRecursive:
    def test_single_block(self):
        assert omega_recursive(NCPartition([[1, 2]])) == 1

    def test_ladder(self):
        assert omega_recursive(NCPartition([[1, 3], [2]])) == Fraction(-1, 2)

    def test_cherry(self):
        assert omega_recursive(NCPartition([[1, 3, 5], [2], [4]])) == Fraction(1, 6)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            omega_recursive(NCPartition([[1, 2], [3, 4]]))

    def test_agrees_with_omega(self):
        from nccumulants.partitions import enumerate_nc_irr, nesting_forest

        for n in range(1, 7):
            for p in enumerate_nc_irr(n):
                tree = nesting_forest(p).trees[0]
                assert omega_recursive(p) == omega(tree), p.text()


class TestBernoulli:
    def test_values(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            5: Fraction(0),
            6: Fraction(1, 42),
        }
        for n, want in expected.items():
            assert bernoulli(n) == want

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestCensus:
    def test_counts(self):
        expected = [1, 1, 2, 4, 9, 20, 48]
        for n, want in enumerate(expected, start=1):
            assert len(trees_of_size(n)) == want

    def test_against_graft_oracle(self):
        previous = {parse_tree("[]")}
        for n in range(2, 8):
            grown = set()
            for t in previous:
                grown.update(_graft_everywhere(t))
            assert grown == set(trees_of_size(n)), n
            previous = grown

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            trees_of_size(0)

    def test_trees_up_to(self):
        assert [t.size for t in trees_up_to(3)] == [1, 2, 3, 3]

    def test_size_cap(self, monkeypatch):
        # sizes above the cap are refused before any tree is built
        assert len(trees_of_size(12)) == 4766
        built = []
        monkeypatch.setattr(trees, "_child_multisets", lambda *args: built.append(args))
        for n in (13, 15, 10**9):
            with pytest.raises(ValueError, match="exceeds the limit"):
                trees_of_size(n)
            with pytest.raises(ValueError, match="exceeds the limit"):
                trees_up_to(n)
        assert built == []
