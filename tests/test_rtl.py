"""Right-to-left tree construction with links kept in through-the-parent form."""

import random

import pytest

from pdawg import (
    PString,
    build_online,
    build_pstree_naive,
    build_pstree_rtl,
    pv_reverse,
    rtl_steps,
    tree_equal,
    upward_links_to_pdawg,
    weiner_links,
)
from pdawg.rtl import _simulate
from pdawg.verify import _arrays, check_rtl

from helpers import A_XY, AB_XYZ, all_pstrings, distinct_by_prev, random_pstring

from pdawg import Alphabet

AB_XY = Alphabet("ab", "xy")
BACKWARD = PString("baxayay", AB_XY)


def _assert_stored_links_are_the_weiner_links(tree):
    """Every stored (first, to) pair resolves to its definitional Weiner-link
    target, and is stored direct (first None) iff the link is explicit."""
    defined = weiner_links(tree)
    for v in range(tree.node_count()):
        assert set(tree.uplinks[v]) == set(defined[v])
        for lbl, (first, to) in tree.uplinks[v].items():
            target = defined[v][lbl]
            assert _simulate(tree, (first, to)) == target
            assert (first is None) == (tree.depth[target] == tree.depth[v] + 1)


class TestSimulateWeiner:
    def test_every_stored_link_resolves_to_its_definitional_target(self):
        tree, _ = build_pstree_rtl(BACKWARD.prev())
        _assert_stored_links_are_the_weiner_links(tree)

    def test_agreement_on_random_texts(self):
        rng = random.Random(41)
        for _ in range(25):
            t = random_pstring(rng, AB_XYZ, rng.randint(0, 30))
            tree, _ = build_pstree_rtl(t.prev())
            _assert_stored_links_are_the_weiner_links(tree)


def _step_redirections(pv):
    """Redirections of each right-to-left step: the change of the running
    total between two yields."""
    out = []
    before = 0
    for _i, _tree, counters in rtl_steps(pv):
        out.append(counters.redirections - before)
        before = counters.redirections
    return out


class TestStepwiseConstruction:
    def test_each_step_matches_a_fresh_build_of_the_suffix(self):
        pv = BACKWARD.prev()
        n = len(pv)
        for i, tree, _counters in rtl_steps(pv):
            assert tree_equal(tree, build_pstree_naive(pv.window(n - i + 1, n)))
        assert all(r <= 1 for r in _step_redirections(pv))

    def test_at_most_one_redirection_per_step_on_random_texts(self):
        rng = random.Random(43)
        for _ in range(30):
            pv = random_pstring(rng, AB_XYZ, rng.randint(0, 60)).prev()
            steps = _step_redirections(pv)
            assert all(r <= 1 for r in steps)
            assert build_pstree_rtl(pv)[1].redirections == sum(steps)

    def test_empty_text(self):
        tree, counters = build_pstree_rtl(PString("", A_XY).prev())
        assert tree.node_count() == 1
        assert counters.redirections == 0
        assert counters.new_links == 0

    def test_climbing_work_is_amortized_by_the_link_count(self):
        rng = random.Random(47)
        for _ in range(20):
            n = rng.randint(1, 200)
            t = random_pstring(rng, AB_XYZ, n)
            _, counters = build_pstree_rtl(t.prev())
            assert counters.climb_visits <= 2 * counters.new_links + n


class TestLinksAsPdawg:
    def test_reference_text(self):
        tree, _ = build_pstree_rtl(BACKWARD.prev())
        g = upward_links_to_pdawg(tree)
        online, _ = build_online(pv_reverse(BACKWARD.prev()))
        assert _arrays(g) == _arrays(online)
        # tree node v is automaton node v
        assert (g.lens, g.slinks) == (tree.depth, tree.parent)

    def test_single_symbol(self):
        tree, _ = build_pstree_rtl(PString("x", A_XY).prev())
        g = upward_links_to_pdawg(tree)
        assert g.node_count() == 2
        assert g.edge_count() == 1

    def test_exhaustive_small_texts(self):
        for t in distinct_by_prev(all_pstrings(A_XY, 6)):
            pv = t.prev()
            tree, _ = build_pstree_rtl(pv)
            g = upward_links_to_pdawg(tree)
            online, _ = build_online(pv_reverse(pv))
            assert _arrays(g) == _arrays(online), str(t)
            assert (g.lens, g.slinks) == (tree.depth, tree.parent), str(t)

    def test_random_texts(self):
        rng = random.Random(53)
        for _ in range(25):
            t = random_pstring(rng, AB_XYZ, rng.randint(0, 50))
            pv = t.prev()
            tree, _ = build_pstree_rtl(pv)
            assert _arrays(upward_links_to_pdawg(tree)) == _arrays(
                build_online(pv_reverse(pv))[0]
            ), str(t)


@pytest.mark.parametrize("raw", ["aaxx", "axaaxx", "xxaxy", "yayaxab"])
def test_known_tricky_texts_redirect_sparingly(raw):
    # texts whose edge cuts carry pre-existing links of several spelled lengths
    assert check_rtl(PString(raw, AB_XY).prev()) is None
