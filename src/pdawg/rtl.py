"""Right-to-left online construction of the parameterized suffix tree.

By the duality of `duality`, the suffix tree of S is the suffix-link tree of
the PDAWG of reverse(S): tree depths are class lengths, parents are suffix
links, and the explicit and implicit Weiner links (prepend-one-symbol links)
are the primary and secondary edges.  Prepending a symbol to S appends one
to reverse(S), so the tree is read off the online automaton of reverse(S),
one `pdawg._online_steps` step per symbol, under the same node ids: the
new sink is the new leaf, and a class split subdivides one tree edge.
`tree.depth`, `tree.parent` and `tree.uplinks` are the automaton's `lens`,
`slinks` and `edges` lists; the tree itself adds only edge spans, suffix
flags and one witness start per node.  An edge label is a span of s, so a
step does O(1) work on the tree: a new leaf's edge spans the rest of its
suffix, and a split cuts one span in two.
"""

from __future__ import annotations

from typing import Iterator

from .pstrings import PString, PvString, _pv, _pv_reverse_codes, _z
from .oracles import PSTree
from .duality import links_to_pdawg
from .pdawg import ConstructionStats, Pdawg, _online_steps


def rtl_steps(s: PString | PvString) -> Iterator[tuple[int, PSTree, ConstructionStats]]:
    """Yield (symbols_prepended, live tree, stats) after every step, step 0
    (the lone root) included.

    After step i the tree is the suffix tree of the last i symbols of s.  The
    yielded tree is the one under construction: inspect, do not mutate.
    """
    pv = _pv(s)
    w_s = pv.codes
    n = len(w_s)
    g = Pdawg(pv.alphabet)
    g.text_codes = _pv_reverse_codes(w_s)
    stats = ConstructionStats()
    tree = PSTree(w_s, pv.alphabet)
    tree.depth, tree.parent, tree.uplinks = g.lens, g.slinks, g.edges
    tree.is_suffix[0] = True

    depth, parent, children, is_suffix = tree.depth, tree.parent, tree.children, tree.is_suffix
    witness = [0]  # 0-based start in s of one occurrence of each node's string

    yield 0, tree, stats
    for i, split in enumerate(_online_steps(g, stats), start=1):
        # the new sink is the leaf of the suffix starting at n - i
        leaf = g.sink
        children.append({})
        is_suffix.append(True)
        witness.append(n - i)
        if split is not None:
            # the new class vp subdivides the edge above v at its length
            v, vp = split
            children.append({})
            is_suffix.append(False)
            witness.append(witness[v])
            par = parent[vp]
            b0 = _z(w_s[witness[v] + depth[par]], depth[par])
            span = children[par][b0][0]
            cut = depth[vp] - depth[par]
            children[par][b0] = (span[:cut], vp)
            children[vp][_z(w_s[span.start + cut], depth[vp])] = (span[cut:], v)

        host = parent[leaf]
        span = range(n - i + depth[host], n)
        first = _z(w_s[span.start], depth[host])
        if first in children[host]:
            raise AssertionError("leaf edge collides with an existing child")
        children[host][first] = (span, leaf)
        yield i, tree, stats


def build_pstree_rtl(s: PString | PvString) -> tuple[PSTree, ConstructionStats]:
    """Build the suffix tree of s by prepending symbols one at a time."""
    for _i, tree, stats in rtl_steps(s):
        pass
    return tree, stats


def upward_links_to_pdawg(tree: PSTree) -> Pdawg:
    """Reinterpret the tree's Weiner links as the PDAWG of the reversed text."""
    return links_to_pdawg(tree, list(map(dict, tree.uplinks)))
