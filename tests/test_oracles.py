"""Definition-level reference structures: trie, minimal automaton, end-position
classes, compacted tree, and the direct-scan matcher."""

import random

import pytest

from pdawg import Alphabet, PString
from pdawg.oracles import (
    build_oracle_pdawg,
    build_psauto,
    build_pstree_naive,
    build_pstrie,
    rpos,
    scan_occurrences,
)
from pdawg.verify import separation_text

from helpers import A_XY, AB_XYZ, all_pstrings, random_pstring

XAXAY = PString("xaxay", A_XY)


def _p(raw):
    return PString(raw, A_XY)


class TestPSTrie:
    def test_same_window_different_context_gets_distinct_nodes(self):
        trie = build_pstrie(XAXAY)
        facs = trie.factor_strings()
        # "a" standing alone and "a" after a parameter are different factors
        assert (-1,) in facs
        assert (0, -1) in facs

    def test_node_count_equals_distinct_windows(self):
        pv = XAXAY.prev()
        windows = {()} | {
            pv.window(i, j).codes for i in range(1, 6) for j in range(i, 6)
        }
        assert build_pstrie(XAXAY).node_count() == len(windows)

    def test_empty_text_gives_a_lone_root(self):
        trie = build_pstrie(PString("", A_XY))
        assert trie.node_count() == 1
        assert trie.accepts(())

    def test_accepts_exactly_the_suffixes(self):
        pv = XAXAY.prev()
        trie = build_pstrie(XAXAY)
        suffixes = {pv.window(i, 5).codes for i in range(1, 7)}
        for i in range(1, 6):
            for j in range(i - 1, 6):
                codes = pv.window(i, j).codes
                assert trie.accepts(codes) == (codes in suffixes)


class TestRpos:
    def test_short_factors_share_their_end_positions(self):
        w = XAXAY.prev()
        assert rpos(w, _p("a").prev()) == (2, 4)
        assert rpos(w, _p("xa").prev()) == (2, 4)

    def test_longer_context_splits_the_positions(self):
        w = XAXAY.prev()
        assert rpos(w, _p("ax").prev()) == (3, 5)
        assert rpos(w, _p("xay").prev()) == (5,)

    def test_empty_pattern_ends_everywhere(self):
        w = XAXAY.prev()
        assert rpos(w, _p("").prev()) == (0, 1, 2, 3, 4, 5)

    def test_absent_factor(self):
        w = XAXAY.prev()
        assert rpos(w, _p("yaxa").prev()) == ()


class TestOraclePdawg:
    def test_classes_merge_factors_with_equal_end_positions(self):
        g = build_oracle_pdawg(XAXAY.prev())
        by_member = {m: c for c in g.classes for m in c.members}
        assert by_member[(-1,)] is by_member[(0, -1)]
        assert by_member[(-1,)].positions == (2, 4)
        assert g.node_count() == 7
        assert g.edge_count() == 8

    def test_some_class_is_unreachable_by_edges(self):
        g = build_oracle_pdawg(XAXAY.prev())
        reached = {g.source}
        stack = [g.source]
        while stack:
            u = stack.pop()
            for tgt in g.classes[u].edges.values():
                if tgt not in reached:
                    reached.add(tgt)
                    stack.append(tgt)
        unreachable = {
            g.classes[u].longest for u in range(len(g.classes)) if u not in reached
        }
        assert unreachable == {(-1, 0)}

    def test_single_static_symbol(self):
        g = build_oracle_pdawg(PString("a", A_XY).prev())
        assert g.node_count() == 2
        assert {c.longest for c in g.classes} == {(), (-1,)}

    def test_members_of_one_class_share_positions_and_classes_differ(self):
        w = PString("xyxayx", AB_XYZ).prev()
        g = build_oracle_pdawg(w)
        seen = set()
        for c in g.classes:
            for m in c.members:
                assert rpos(w, _pv(w, m)) == c.positions
            assert c.positions not in seen
            seen.add(c.positions)

    def test_random_texts_stay_within_the_size_bounds(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(3, 60)
            t = random_pstring(rng, AB_XYZ, n)
            g = build_oracle_pdawg(t.prev())
            assert g.node_count() <= 2 * n - 1
            assert g.edge_count() <= 3 * n - 4


def _pv(w, codes):
    from pdawg import PvString

    return PvString(codes, w.alphabet)


class TestPSAuto:
    def test_accepts_exactly_the_suffixes_and_is_minimal(self):
        pv = XAXAY.prev()
        auto = build_psauto(XAXAY)
        trie = build_pstrie(XAXAY)
        for codes in trie.factor_strings():
            assert auto.accepts(codes) == trie.accepts(codes)
        assert not auto.accepts((0, -1, 0, -1))
        # minimality: no two states accept the same extension set
        exts = [_accepted_extensions(auto, q) for q in range(auto.state_count())]
        assert len({frozenset(e) for e in exts}) == auto.state_count()

    def test_doubled_parameter_blocks_force_quadratic_states(self):
        auto = build_psauto(separation_text(4))
        assert auto.state_count() >= 6

    def test_all_static_text_matches_the_classic_automaton(self):
        auto = build_psauto(PString("ab", Alphabet("ab", "")))
        # minimal automaton of {ab, b, empty}: start, after-a, after-b/ab
        assert auto.state_count() == 3
        assert auto.accepts(())
        assert auto.accepts((-2,))
        assert auto.accepts((-1, -2))
        assert not auto.accepts((-1,))


def _accepted_extensions(auto, q):
    out = set()
    stack = [(q, ())]
    while stack:
        u, s = stack.pop()
        if auto.accepting[u]:
            out.add(s)
        for c, ch in auto.transitions[u].items():
            stack.append((ch, s + (c,)))
    return out


class TestNaivePSTree:
    def test_decompaction_reproduces_the_trie(self):
        rng = random.Random(17)
        for _ in range(20):
            t = random_pstring(rng, AB_XYZ, rng.randint(0, 40))
            tree = build_pstree_naive(t)
            strings = tree.node_strings()
            prefixes = set()
            for v in range(tree.node_count()):
                for span, ch in tree.children[v].values():
                    lab = tree.label(v, span)
                    base = strings[v]
                    for q in range(1, len(lab) + 1):
                        prefixes.add(base + lab[:q])
            prefixes.add(())
            assert prefixes == build_pstrie(t).factor_strings()

    def test_suffix_markers_and_depths_are_consistent(self):
        t = PString("baxayay", Alphabet("ab", "xy"))
        tree = build_pstree_naive(t)
        strings = tree.node_strings()
        pv = t.prev()
        suffixes = {pv.window(i, 7).codes for i in range(1, 9)}
        marked = {strings[v] for v in range(tree.node_count()) if tree.is_suffix[v]}
        assert marked == suffixes
        for v in range(tree.node_count()):
            assert tree.depth[v] == len(strings[v])

    def test_inner_nodes_branch_or_end_a_suffix(self):
        tree = build_pstree_naive(XAXAY)
        for v in range(tree.node_count()):
            if v != tree.root and tree.children[v]:
                assert len(tree.children[v]) >= 2 or tree.is_suffix[v]

    def test_empty_text_gives_root_only(self):
        tree = build_pstree_naive(PString("", A_XY))
        assert tree.node_count() == 1


class TestScanOccurrences:
    def test_renamed_window_matches(self):
        assert scan_occurrences(XAXAY, _p("ya")) == (2, 4)

    def test_whole_text(self):
        assert scan_occurrences(XAXAY, XAXAY) == (5,)

    def test_absent_pattern(self):
        assert scan_occurrences(XAXAY, _p("yaxa")) == ()

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            scan_occurrences(XAXAY, _p(""))


def test_exhaustive_tiny_texts_language_equality():
    for t in all_pstrings(A_XY, 4):
        trie = build_pstrie(t)
        auto = build_psauto(t)
        for codes in trie.factor_strings():
            assert auto.accepts(codes) == trie.accepts(codes)
