"""The two-way correspondence between the class-merged index of a text and
the compacted suffix tree of its reversal."""

import random

import pytest

from pdawg import (
    Alphabet,
    PString,
    PSTree,
    StructureError,
    build_online,
    build_pstree_naive,
    offline_build_pdawg,
    pv_reverse,
    suffix_link_tree_as_pstree,
    upward_links_to_pdawg,
)
from pdawg.oracles import tree_equal, weiner_links
from pdawg.verify import _arrays, canonical_form, check_duality, check_offline, verify_duality

from helpers import A_XY, AB_XYZ, all_pstrings, distinct_by_prev, random_pstring

AB_XY = Alphabet("ab", "xy")
FORWARD = PString("yayaxab", AB_XY)   # the indexed text
BACKWARD = PString("baxayay", AB_XY)  # its reversal, carrying the tree


def _pair(text):
    """(index of text, tree of reverse(text))."""
    g, _ = build_online(text.prev())
    tree = build_pstree_naive(pv_reverse(text.prev()))
    return g, tree


class TestSuffixLinkTree:
    def test_reversed_links_spell_the_reverse_text_tree(self):
        g, _ = build_online(FORWARD.prev())
        extracted = suffix_link_tree_as_pstree(g)
        assert tree_equal(extracted, build_pstree_naive(BACKWARD.prev()))

    def test_single_static_symbol(self):
        g, _ = build_online(PString("a", A_XY).prev())
        extracted = suffix_link_tree_as_pstree(g)
        assert extracted.node_count() == 2
        assert tree_equal(extracted, build_pstree_naive(PString("a", A_XY)))

    def test_random_texts(self):
        rng = random.Random(29)
        for _ in range(25):
            t = random_pstring(rng, AB_XYZ, rng.randint(0, 40))
            g, _ = build_online(t.prev())
            assert tree_equal(
                suffix_link_tree_as_pstree(g),
                build_pstree_naive(pv_reverse(t.prev())),
            )

    def test_node_on_no_suffix_link_chain_is_rejected(self):
        g, _ = build_online(FORWARD.prev())
        g.lens.append(1)
        g.slinks.append(g.source)
        g.static_edges.append({})
        g.int_edges.append({})
        with pytest.raises(StructureError, match="node unreachable along suffix-link chains"):
            suffix_link_tree_as_pstree(g)

    def test_equal_first_symbols_under_one_parent_are_rejected(self):
        g, _ = build_online(FORWARD.prev())
        # hang u beside its own suffix link q, a prefix class that stays on a
        # chain: both edges now open with the symbol that leads to q
        u, q = next(
            (u, q)
            for u, q in enumerate(g.slinks)
            if q and q in g.sink_history and g.slinks[q] is not None
        )
        g.slinks[u] = g.slinks[q]
        with pytest.raises(StructureError, match="branches on equal first symbols"):
            suffix_link_tree_as_pstree(g)

    def test_tree_shares_the_automaton_lists_under_its_node_ids(self):
        g, _ = build_online(FORWARD.prev())
        tree = suffix_link_tree_as_pstree(g)
        assert tree.depth is g.lens
        assert tree.parent is g.slinks
        assert tree.static_links is g.static_edges
        assert tree.int_links is g.int_edges
        assert tree.is_suffix == [u in g.sink_history for u in g.node_ids()]


class TestWeinerLinks:
    def test_root_links_cover_the_first_symbols(self):
        tree = build_pstree_naive(BACKWARD.prev())
        static_links, int_links = weiner_links(tree)
        # prepending a static or a fresh parameter to the empty string lands
        # on the corresponding depth-1 locus whenever it occurs at all
        assert set(static_links[tree.root]) == {-1, -2}
        assert set(int_links[tree.root]) == {0}

    def test_link_counts_match_the_edge_partition(self):
        for t in distinct_by_prev(all_pstrings(A_XY, 5)):
            assert check_duality(t.prev()) is None, str(t)

    def test_ancestors_inherit_links_with_shrunk_labels(self):
        tree = build_pstree_naive(BACKWARD.prev())
        # a static label stays static, an integer one an integer
        for links in weiner_links(tree):
            for v in range(tree.node_count()):
                for k in links[v]:
                    u = tree.parent[v]
                    while u is not None:
                        t = k if k < 0 or tree.depth[u] >= k else 0
                        assert t in links[u], (v, k, u)
                        u = tree.parent[u]


class TestVerifyDuality:
    def test_reference_pair_passes_all_four_items(self):
        g, tree = _pair(FORWARD)
        assert verify_duality(g, tree) is None

    def test_single_symbol_text(self):
        g, tree = _pair(PString("x", A_XY))
        assert verify_duality(g, tree) is None

    def test_five_hundred_random_texts(self):
        rng = random.Random(31)
        for _ in range(500):
            t = random_pstring(rng, AB_XYZ, rng.randint(0, 14))
            assert check_duality(t.prev()) is None, str(t)

    def test_mismatched_pair_reports_a_witness(self):
        g, _ = build_online(FORWARD.prev())
        wrong_tree = build_pstree_naive(PString("bataxay", Alphabet("abt", "xy")))
        detail = verify_duality(g, wrong_tree)
        assert detail is not None
        assert detail.startswith("duality item1 fails: unmatched node string ")

    def test_a_missing_secondary_edge_fails_item3(self):
        g, tree = _pair(FORWARD)
        u, lbl = next(
            (u, lbl)
            for u in g.node_ids()
            for lbl, tgt in g.edges[u].items()
            if not g.is_primary(u, tgt)
        )
        del (g.static_edges if lbl < 0 else g.int_edges)[u][lbl]
        assert verify_duality(g, tree) == (
            "duality item3 fails: unmatched secondary/implicit: (empty) -[a]-> a0"
        )


class TestOfflineBuild:
    def test_reference_pair(self):
        tree = build_pstree_naive(BACKWARD.prev())
        g = offline_build_pdawg(tree)
        online, _ = build_online(FORWARD.prev())
        assert canonical_form(g) == canonical_form(online)
        # tree node v is automaton node v
        assert (g.lens, g.slinks) == (tree.depth, tree.parent)

    def test_static_only_text(self):
        alpha = Alphabet("abc", "")
        s = PString("cabbac", alpha)
        tree = build_pstree_naive(s.prev())
        g = offline_build_pdawg(tree)
        online, _ = build_online(PString(s.raw[::-1], alpha).prev())
        assert canonical_form(g) == canonical_form(online)

    def test_exhaustive_small_texts(self):
        for t in distinct_by_prev(all_pstrings(A_XY, 6)):
            assert check_offline(t.prev()) is None, str(t)

    @pytest.mark.parametrize("n", [10_000, 100_000])
    @pytest.mark.parametrize(
        "family", ["code_text", "random_text", "separation_text", "extremal_text"]
    )
    def test_bench_families_at_scale(self, bench_families, family, n):
        # the tree's depths and parents are the online lens and slinks, so
        # the edges and the suffix nodes are what the offline build derives
        symbols, sigma = getattr(bench_families, family)(random.Random(1), n)
        g, _ = build_online(PString(symbols, Alphabet.from_text(symbols, sigma)))
        assert _arrays(offline_build_pdawg(suffix_link_tree_as_pstree(g))) == _arrays(g)

    def test_malformed_tree_is_rejected(self):
        alpha = Alphabet("a", "x")
        tree = PSTree((-1,), alpha)
        child = tree.new_node(depth=0, is_suffix=True)  # depth does not grow
        tree.attach(tree.root, range(0, 1), child)
        with pytest.raises(StructureError):
            offline_build_pdawg(tree)

    def test_tree_missing_a_suffix_node_is_rejected(self):
        alpha = Alphabet("a", "x")
        tree = PSTree((-1, -1), alpha)
        child = tree.new_node(depth=2, is_suffix=True)
        tree.attach(tree.root, range(0, 2), child)  # depth-1 suffix never marked
        with pytest.raises(StructureError):
            offline_build_pdawg(tree)

    @pytest.mark.parametrize(
        "text, marked, depth",
        [
            # kept the last mark, this built an automaton off every chain
            ("yxyaaxb", 8, 2),
            # and this one failed inside the link propagation
            ("xaybab", 6, 1),
        ],
    )
    def test_tree_with_two_suffix_nodes_of_one_depth_is_rejected(self, text, marked, depth):
        tree = build_pstree_naive(PString(text, AB_XY).prev())
        assert not tree.is_suffix[marked] and tree.depth[marked] == depth
        tree.is_suffix[marked] = True
        with pytest.raises(StructureError, match=f"two suffix nodes of depth {depth}"):
            offline_build_pdawg(tree)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda t: t.parent.__setitem__(0, 1), "node 0 must be the root at depth 0"),
            (lambda t: t.depth.__setitem__(0, 1), "node 0 must be the root at depth 0"),
            (lambda t: t.parent.__setitem__(3, 0), "node 3 disagrees with its parent"),
            (lambda t: t.new_node(depth=3), "node 10 is disconnected"),
        ],
    )
    def test_tree_validator_names_each_fault(self, edit, match):
        tree = build_pstree_naive(BACKWARD.prev())
        offline_build_pdawg(tree)
        edit(tree)
        with pytest.raises(StructureError, match=match):
            offline_build_pdawg(tree)

    @pytest.mark.parametrize(
        "first, span, match",
        [
            (-1, range(0, 0), "not a nonempty span"),
            (-1, range(0, 4, 2), "not a nonempty span"),
            (-2, range(1, 3), "not a nonempty span"),  # leaves the text
            (-1, (-1, -2), "not a nonempty span"),  # codes, not a span
            (-2, range(0, 2), "mislabeled"),  # the span opens with -1
        ],
    )
    def test_malformed_span_is_rejected(self, first, span, match):
        tree = PSTree((-1, -2), Alphabet("ab", "x"))
        child = tree.new_node(depth=2, is_suffix=True)
        tree.children[tree.root][first] = (span, child)
        tree.parent[child] = tree.root
        with pytest.raises(StructureError, match=match):
            offline_build_pdawg(tree)

    def test_links_that_form_no_pdawg_are_rejected(self):
        text = PString("xaxay", A_XY).prev()
        tree = build_pstree_naive(pv_reverse(text))
        # the naive tree holds no links, so no edge spells the text
        with pytest.raises(StructureError, match="primary spine"):
            upward_links_to_pdawg(tree)
        # its definitional Weiner links are the automaton of the text
        tree.static_links, tree.int_links = weiner_links(tree)
        g = upward_links_to_pdawg(tree)
        assert canonical_form(g) == canonical_form(build_online(text)[0])

    def test_links_read_off_an_automaton_rebuild_it_in_maps_of_its_own(self):
        g, _ = build_online(FORWARD.prev())
        h = upward_links_to_pdawg(suffix_link_tree_as_pstree(g))
        assert _arrays(h) == _arrays(g)
        # a write to one of h's label maps of each kind reaches no map of g
        for maps in (h.static_edges, h.int_edges):
            next(m for m in maps if m)[99] = 0
        assert _arrays(g) == _arrays(build_online(FORWARD.prev())[0])


def test_node_counts_agree_between_the_two_views():
    rng = random.Random(37)
    for _ in range(20):
        t = random_pstring(rng, AB_XY, rng.randint(0, 30))
        g, tree = _pair(t)
        assert g.node_count() == tree.node_count()
