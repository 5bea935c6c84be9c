"""Right-to-left online construction of the parameterized suffix tree.

By the duality of `duality`, the suffix tree of S is the suffix-link tree of
the PDAWG of reverse(S): tree depths are class lengths, parents are suffix
links, and the explicit and implicit Weiner links (prepend-one-symbol links)
are the primary and secondary edges.  Prepending a symbol to S appends one
to reverse(S), so the tree after each prepended symbol is read off the
online automaton of reverse(S), one `pdawg._online_steps` step per symbol,
by `duality.suffix_link_tree_as_pstree` under the same node ids: the new
sink is the new leaf, and a class split is a new inner node.
`tree.depth` and `tree.parent` are the automaton's `lens` and `slinks`
lists and `tree.uplinks` its `edges` view; the tree adds its edge spans and
suffix flags, read off in one pass over the nodes.
"""

from __future__ import annotations

from typing import Iterator

from .pstrings import PString, PvString, _pv, pv_reverse
from .oracles import PSTree
from .duality import links_to_pdawg, suffix_link_tree_as_pstree
from .pdawg import ConstructionStats, Pdawg, _online_steps, build_online


def rtl_steps(s: PString | PvString) -> Iterator[tuple[int, PSTree, ConstructionStats]]:
    """Yield (symbols_prepended, tree, stats) after every step, step 0 (the
    lone root) included.

    After step i the tree is the suffix tree of the last i symbols of s.
    Each tree is read afresh off the automaton, so a step costs O(n), and it
    shares the automaton's live lists: it is valid until the next step.
    """
    pv = _pv(s)
    g = Pdawg(pv.alphabet)
    g.text_codes = pv_reverse(pv).codes
    stats = ConstructionStats()
    yield 0, suffix_link_tree_as_pstree(g), stats
    for i, _split in enumerate(_online_steps(g, stats), start=1):
        yield i, suffix_link_tree_as_pstree(g), stats


def build_pstree_rtl(s: PString | PvString) -> tuple[PSTree, ConstructionStats]:
    """Build the suffix tree of s by prepending symbols one at a time: the
    online build of reverse(s), and the tree read off it once."""
    g, stats = build_online(pv_reverse(_pv(s)))
    return suffix_link_tree_as_pstree(g), stats


def upward_links_to_pdawg(tree: PSTree) -> Pdawg:
    """Reinterpret the tree's Weiner links as the PDAWG of the reversed text,
    in label maps of its own."""
    return links_to_pdawg(tree, tree.uplinks)
