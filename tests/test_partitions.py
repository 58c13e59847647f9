from math import comb, factorial

import pytest

from nccumulants import cumulants, oracle, partitions, trees
from nccumulants.partitions import (
    BlockSubset,
    MonotonePartition,
    NCPartition,
    enumerate_monotone_irr,
    enumerate_nc,
    enumerate_nc_irr,
    irreducible_components,
    min_max_lt,
    monotone_count_partition,
    nesting_forest,
    nesting_lt,
    sub_families,
    v_components,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def P(text):
    return NCPartition.from_text(text)


class TestConstruction:
    def test_canonicalization(self):
        p = NCPartition([[3, 1], [2]])
        assert p.blocks == ((1, 3), (2,))
        assert p.ground == (1, 2, 3)
        assert p.size == 3 and p.num_blocks == 2

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            NCPartition([[1, 3], [2, 4]])
        with pytest.raises(ValueError):
            NCPartition([[1, 4, 6], [2, 5], [3]])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            NCPartition([[1, 2], [2, 3]])

    def test_bad_elements_rejected(self):
        with pytest.raises(ValueError):
            NCPartition([[0, 1]])
        with pytest.raises(ValueError):
            NCPartition([[]])
        # a bool is an int to Python, but not a point
        with pytest.raises(ValueError, match="positive integers"):
            NCPartition([[True]])

    def test_empty_partition(self):
        p = NCPartition([])
        assert p.blocks == () and p.size == 0
        assert not p.is_irreducible()

    def test_sub_ground_set(self):
        p = NCPartition([[2, 8], [4, 6]])
        assert p.ground == (2, 4, 6, 8)
        assert p.is_irreducible()

    def test_full_discrete(self):
        assert NCPartition.full(3) == P("{{1,2,3}}")
        assert NCPartition.discrete(3) == P("{{1},{2},{3}}")
        with pytest.raises(ValueError):
            NCPartition.full(0)

    def test_immutability(self):
        p = P("{{1,2}}")
        with pytest.raises(AttributeError):
            p.blocks = ()


class TestTextJson:
    def test_text_roundtrip(self):
        for text in ("{{1,3},{2}}", "{{1,2},{3,4}}", "{{1}}", "{}"):
            assert P(text).text() == text

    def test_json_roundtrip(self):
        p = P("{{1,3},{2}}")
        assert p.to_json() == [[1, 3], [2]]
        assert NCPartition.from_json(p.to_json()) == p

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "{",
            "{{}}",
            "{{1,},{2}}",
            "1,2",
            "{{a}}",
            "{{1},{2}}}",
            "{{{1},{2}}",
            "{{1}},{{2}}",
        ],
    )
    def test_malformed_text(self, bad):
        with pytest.raises(ValueError):
            NCPartition.from_text(bad)


class TestEnumeration:
    def test_n1(self):
        assert enumerate_nc(1) == [P("{{1}}")]

    def test_n3_explicit(self):
        expected = {
            P("{{1,2,3}}"),
            P("{{1},{2,3}}"),
            P("{{1,2},{3}}"),
            P("{{1,3},{2}}"),
            P("{{1},{2},{3}}"),
        }
        assert set(enumerate_nc(3)) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_and_brute_cross_check(self, n):
        got = enumerate_nc(n)
        assert len(got) == catalan(n)
        assert len(set(got)) == len(got)
        assert set(got) == set(oracle.brute_enumerate_nc(n))

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_nc(0)
        with pytest.raises(ValueError):
            enumerate_nc(13)

    def test_bool_size_refused(self):
        # True is not the ground-set size 1, here or in an expansion
        for call in (
            lambda: partitions._check_enum_n(True),
            lambda: enumerate_nc(True),
            lambda: enumerate_nc_irr(True),
            lambda: cumulants.expansion_terms("free", "monotone", True),
        ):
            with pytest.raises(ValueError, match="positive integer"):
                call()

    def test_env_bound_override(self, monkeypatch):
        monkeypatch.setenv("NC_CUMULANTS_MAX_N", "5")
        with pytest.raises(ValueError):
            enumerate_nc(6)
        assert len(enumerate_nc(5)) == catalan(5)
        monkeypatch.setenv("NC_CUMULANTS_MAX_N", "junk")
        with pytest.raises(ValueError):
            enumerate_nc(3)

    def test_irreducible_examples(self):
        assert enumerate_nc_irr(2) == [P("{{1,2}}")]
        assert set(enumerate_nc_irr(3)) == {P("{{1,2,3}}"), P("{{1,3},{2}}")}
        assert len(enumerate_nc_irr(4)) == 5

    @pytest.mark.parametrize("n", range(1, 9))
    def test_irreducible_counts(self, n):
        got = enumerate_nc_irr(n)
        assert len(got) == catalan(n - 1)
        assert all(p.is_irreducible() for p in got)


class TestStructure:
    def test_is_irreducible(self):
        assert P("{{1,3},{2}}").is_irreducible()
        assert not P("{{1},{2}}").is_irreducible()
        assert not P("{{1,2},{3,4}}").is_irreducible()

    def test_nesting_lt(self):
        p = P("{{1,3},{2}}")
        assert nesting_lt(p, 0, 1)
        assert not nesting_lt(p, 1, 0)
        q = P("{{1,2},{3,4}}")
        assert not nesting_lt(q, 0, 1) and not nesting_lt(q, 1, 0)
        r = P("{{1,5},{2,4},{3}}")
        assert nesting_lt(r, 1, 2)
        assert nesting_lt(r, 0, 2)

    def test_nesting_lt_errors(self):
        p = P("{{1,3},{2}}")
        with pytest.raises(ValueError):
            nesting_lt(p, 0, 0)
        with pytest.raises(ValueError):
            nesting_lt(p, 0, 5)

    def test_components_side_by_side(self):
        assert irreducible_components(P("{{1,2},{3,4}}")) == [
            P("{{1,2}}"),
            P("{{3,4}}"),
        ]

    def test_components_irreducible_input(self):
        assert irreducible_components(P("{{1,3},{2}}")) == [P("{{1,3},{2}}")]

    def test_components_keep_labels(self):
        got = irreducible_components(P("{{1,3},{2},{4,5,8},{6},{7}}"))
        assert got == [P("{{1,3},{2}}"), P("{{4,5,8},{6},{7}}")]

    def test_components_reassemble(self):
        for n in range(1, 8):
            for p in enumerate_nc(n):
                comps = irreducible_components(p)
                assert all(c.is_irreducible() for c in comps)
                blocks = tuple(b for c in comps for b in c.blocks)
                assert tuple(sorted(blocks, key=lambda b: b[0])) == p.blocks

    def test_nesting_forest(self):
        assert nesting_forest(P("{{1,3},{2}}")).encoding == "[[]]"
        assert nesting_forest(P("{{1,3,5},{2},{4}}")).encoding == "[[][]]"
        assert nesting_forest(P("{{1,9,10},{2,3},{4,5,8},{6,7}}")).encoding == "[[][[]]]"
        assert nesting_forest(P("{{1,2},{3,4}}")).encoding == "[][]"

    @pytest.mark.parametrize("n", range(1, 10))
    def test_parents_match_innermost_container(self, n):
        # the stack sweep against the definition: the parent of block j is
        # the block containing j that every other container of j contains
        for p in enumerate_nc(n):
            k = p.num_blocks
            expected = []
            for j in range(k):
                outer = [i for i in range(k) if i != j and nesting_lt(p, i, j)]
                inner = [i for i in outer if all(nesting_lt(p, o, i) for o in outer if o != i)]
                assert len(inner) == (1 if outer else 0), p.text()
                expected.append(inner[0] if inner else None)
            assert partitions._parents(p.blocks) == tuple(expected), p.text()

    def test_forest_vertex_count(self):
        for n in range(1, 7):
            for p in enumerate_nc(n):
                assert nesting_forest(p).size == p.num_blocks

    @staticmethod
    def _nested(depth):
        # depth blocks {i, 2*depth+1-i}, each nested in the one before
        return "{" + ",".join(f"{{{i},{2 * depth + 1 - i}}}" for i in range(1, depth + 1)) + "}"

    def test_deep_nesting_refused(self):
        p = NCPartition.from_text(self._nested(1500))
        assert p.num_blocks == 1500
        with pytest.raises(ValueError, match="nested deeper"):
            nesting_forest(p)

    def test_nesting_at_depth_limit(self):
        depth = trees._MAX_DEPTH
        forest = nesting_forest(NCPartition.from_text(self._nested(depth)))
        assert forest.encoding == "[" * depth + "]" * depth
        assert trees.forest_factorial(forest) == factorial(depth)
        with pytest.raises(ValueError, match="nested deeper"):
            nesting_forest(NCPartition.from_text(self._nested(depth + 1)))


class TestMonotone:
    def test_count_examples(self):
        assert monotone_count_partition(P("{{1,2}}")) == 1
        assert monotone_count_partition(P("{{1,3,5},{2},{4}}")) == 2
        assert monotone_count_partition(P("{{1,5},{2,4},{3}}")) == 1

    def test_enumerate_base_cases(self):
        got = enumerate_monotone_irr(2, 1)
        assert len(got) == 1
        assert got[0].base == P("{{1,2}}") and got[0].labels == (1,)

    def test_enumerate_n3(self):
        got = enumerate_monotone_irr(3, 2)
        assert len(got) == 1
        assert got[0].base == P("{{1,3},{2}}")
        assert got[0].labels == (1, 2)

    def test_enumerate_n4(self):
        got = enumerate_monotone_irr(4, 2)
        bases = {mp.base for mp in got}
        assert bases == {P("{{1,4},{2,3}}"), P("{{1,3,4},{2}}"), P("{{1,2,4},{3}}")}
        assert all(mp.labels == (1, 2) for mp in got)

    def test_enumerate_empty_cases(self):
        assert enumerate_monotone_irr(3, 5) == []
        assert enumerate_monotone_irr(2, 2) == []
        assert enumerate_monotone_irr(4, 0) == []
        with pytest.raises(ValueError):
            enumerate_monotone_irr(0, 1)

    def test_family_size_counted_exactly(self):
        # the size guard counts exactly the family the enumeration builds
        for n in range(1, 9):
            for k in range(1, n + 1):
                assert partitions._mono_irr_count(n, k) == len(enumerate_monotone_irr(n, k))

    def test_family_size_limit(self):
        assert partitions._mono_irr_count(10, 6) == 67284
        with pytest.raises(ValueError, match="12753576 irreducible monotone"):
            enumerate_monotone_irr(12, 9)

    def test_enumeration_no_duplicates(self):
        for n in range(2, 7):
            for k in range(1, n + 1):
                got = enumerate_monotone_irr(n, k)
                assert len(set(got)) == len(got)

    def test_label_validation(self):
        base = P("{{1,3},{2}}")
        with pytest.raises(ValueError):
            MonotonePartition(base, (2, 1))  # inner block must get the bigger label
        with pytest.raises(ValueError):
            MonotonePartition(base, (1, 3))

    def test_equality(self):
        base = P("{{1,3,5},{2},{4}}")
        mp = MonotonePartition(base, (1, 2, 3))
        same = MonotonePartition(P("{{1,3,5},{2},{4}}"), (1, 2, 3))
        assert mp == same and hash(mp) == hash(same)
        assert mp != MonotonePartition(base, (1, 3, 2))
        assert MonotonePartition(P("{{1,4},{2,3}}"), (1, 2)) != MonotonePartition(
            P("{{1,3,4},{2}}"), (1, 2)
        )

    def test_text_and_json(self):
        mp = enumerate_monotone_irr(3, 2)[0]
        assert mp.text() == "{{1,3},{2}}"
        assert mp.to_json() == {"blocks": [[1, 3], [2]]}


class TestSubFamilies:
    def test_single_block(self):
        got = sub_families(P("{{1,2}}"))
        assert len(got) == 1 and got[0].selected == frozenset({0})

    def test_nested(self):
        got = sub_families(P("{{1,3},{2}}"))
        assert {bs.selected for bs in got} == {frozenset({0}), frozenset({0, 1})}

    def test_empty_partition(self):
        got = sub_families(NCPartition([]))
        assert len(got) == 1 and got[0].selected == frozenset()

    def test_all_contain_outer_blocks(self):
        for p in enumerate_nc(5):
            outers = {
                i
                for i, b in enumerate(p.blocks)
                if not any(
                    o[0] < b[0] and b[-1] < o[-1] for j, o in enumerate(p.blocks) if j != i
                )
            }
            for bs in sub_families(p):
                assert outers <= bs.selected

    def test_invalid_selection_rejected(self):
        with pytest.raises(ValueError):
            BlockSubset(P("{{1,3},{2}}"), {1})  # misses the outer block
        with pytest.raises(ValueError):
            BlockSubset(P("{{1,2}}"), {0, 7})


class TestVComponents:
    def test_outer_only(self):
        p = P("{{1,3},{2}}")
        nu, comps = v_components(BlockSubset(p, {0}))
        assert nu == NCPartition([[1, 3]])
        assert comps == [p]

    def test_all_selected(self):
        p = P("{{1,3},{2}}")
        nu, comps = v_components(BlockSubset(p, {0, 1}))
        assert nu == p
        assert comps == [NCPartition([[1, 3]]), NCPartition([[2]])]

    def test_nested_chain_split(self):
        p = P("{{1,5},{2,4},{3}}")
        nu, comps = v_components(BlockSubset(p, {0, 1}))
        assert nu == NCPartition([[1, 5], [2, 4]])
        assert comps == [NCPartition([[1, 5]]), NCPartition([[2, 4], [3]])]

    def test_components_are_irreducible_with_selected_minimum(self):
        for n in range(1, 6):
            for p in enumerate_nc(n):
                for bs in sub_families(p):
                    nu, comps = v_components(bs)
                    for c in comps:
                        assert c.is_irreducible() or c.num_blocks == 1
                        assert c.blocks[0] in {p.blocks[i] for i in bs.selected}

    def test_reassembly_identity(self):
        for n in range(1, 8):
            for p in enumerate_nc(n):
                for bs in sub_families(p):
                    nu, comps = v_components(bs)
                    blocks = tuple(
                        sorted((b for c in comps for b in c.blocks), key=lambda b: b[0])
                    )
                    assert blocks == p.blocks
                    mins = frozenset(p.blocks.index(c.blocks[0]) for c in comps)
                    assert mins == bs.selected
                    assert nu.blocks == tuple(
                        p.blocks[i] for i in sorted(bs.selected)
                    )


class TestMinMax:
    def test_reflexive(self):
        for p in enumerate_nc(4):
            assert min_max_lt(p, p)

    def test_discrete_vs_full(self):
        for n in range(2, 6):
            assert not min_max_lt(NCPartition.discrete(n), NCPartition.full(n))

    def test_example(self):
        assert min_max_lt(P("{{1,3},{2}}"), NCPartition.full(3))

    def test_refinement_required(self):
        assert not min_max_lt(P("{{1,2,3}}"), P("{{1,3},{2}}"))

    def test_mismatched_ground(self):
        with pytest.raises(ValueError):
            min_max_lt(P("{{1,2}}"), P("{{1,2,3}}"))
