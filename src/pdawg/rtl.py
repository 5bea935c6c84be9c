"""Right-to-left online construction of the parameterized suffix tree.

Prepending a symbol to the text corresponds, through the reversal duality, to
one online PDAWG step: tree nodes play PDAWG classes under the same ids
(parent = suffix link, depth = class length; the root is the PDAWG source,
node 0 with parent None, and a step's climb stops at None just as the online
climb does past the source).  PDAWG edges are kept as *upward* Weiner links
stored at the node they leave: `tree.uplinks[v]` maps each label to a pair
(first, to).  The link ends exactly at node `to` when first is None, or at
the child of `to` along first symbol `first` — that child may be subdivided
later, and the indirect form keeps the link pointing at the right place
without ever revisiting it.  `_simulate` resolves a pair to its endpoint, and
`upward_links_to_pdawg` resolves them all.

The payoff is that a class split is a single edge subdivision: all indirect
links through the cut edge follow automatically, and at most one link (the
one that lands exactly on the new node and must become direct) is rewritten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .pstrings import PString, PvString, _pv, _pv_reverse_codes, _z
from .oracles import PSTree
from .duality import StructureError, links_to_pdawg
from .pdawg import Pdawg, _lrs_bound, _zero_label


@dataclass
class RtlCounters:
    """Work counters for one right-to-left construction run."""

    redirections: int = 0
    climb_visits: int = 0
    new_links: int = 0


def _simulate(tree: PSTree, stored: tuple[int | None, int]) -> int:
    b, to = stored
    if b is None:
        return to
    ent = tree.children[to].get(b)
    if ent is None:
        raise StructureError("upward link points through a missing child")
    return ent[1]


def _trans_rtl(tree: PSTree, u: int, i: int, a: int) -> int | None:
    """The PDAWG transition evaluated over upward links."""
    m = tree.uplinks[u]
    if a != 0:
        st = m.get(a)
        return None if st is None else _simulate(tree, st)
    b = _zero_label(m, i, tree.depth[u])
    if b is None:
        return None
    if b >= 0:
        return _simulate(tree, m[b])
    p = tree.parent[_simulate(tree, m[-b])]
    if p is None:
        raise AssertionError("transition consulted an unattached node")
    return p


def rtl_steps(s: PString | PvString) -> Iterator[tuple[int, PSTree, RtlCounters]]:
    """Yield (symbols_prepended, live tree, counters) after every step,
    step 0 (the lone root) included.

    After step i the tree is the suffix tree of the last i symbols of s.  The
    yielded tree is the one under construction: inspect, do not mutate.
    """
    pv = _pv(s)
    w_s = pv.codes
    n = len(w_s)
    t_codes = _pv_reverse_codes(w_s)
    tree = PSTree(w_s, pv.alphabet)
    tree.is_suffix[0] = True
    counters = RtlCounters()

    parent, depth, children, uplinks = tree.parent, tree.depth, tree.children, tree.uplinks
    witness = [0]  # 0-based start in s of one occurrence of each node's string
    # (source, label) of every link stored in through-the-parent form, keyed by
    # its endpoint; consulted when an edge cut must decide which links follow
    inlinks: list[set[tuple[int, int]]] = [set()]

    sink = tree.root
    yield 0, tree, counters
    for i in range(1, n + 1):
        a = t_codes[i - 1]
        leaf = tree.new_node(i, True)
        witness.append(n - i)
        inlinks.append(set())
        fresh: list[tuple[int, int]] = []  # (node, label) links written toward the leaf

        # climb from the old sink giving each visited suffix class its edge to
        # the new sink, until a suffix survives the extension
        u: int | None = sink
        while u is not None:
            pu = parent[u]
            j = 0 if pu is None else depth[pu] + 1
            counters.climb_visits += 1
            if _trans_rtl(tree, u, j, _z(a, j)) is not None:
                break
            d = depth[u]
            lbl = _z(a, d)
            uplinks[u][lbl] = (None, leaf)
            fresh.append((u, lbl))
            counters.new_links += 1
            u = pu

        # locate the longest repeated suffix: its length k and its class v
        if u is None:
            k = 0
            v = tree.root
        else:
            d = depth[u]
            zau = _z(a, d)
            m = uplinks[u]
            if zau in m:
                k = d + 1
                v = _simulate(tree, m[zau])
            else:
                k = _lrs_bound(m, a)
                t = _trans_rtl(tree, u, k - 1, 0)
                if t is None:
                    raise AssertionError("longest repeated suffix has no node")
                v = t
                uplinks[u][zau] = (None, leaf)
                fresh.append((u, zau))
                counters.new_links += 1

        if depth[v] == k:
            host = v
        else:
            # split: drop a node at depth k onto the edge above v
            vp = tree.new_node(k, False)
            witness.append(witness[v])
            par = parent[v]
            if par is None:
                raise AssertionError("split point above the root")
            b0 = _z(w_s[witness[v] + depth[par]], depth[par])
            lab_full = children[par][b0][0]
            cut = k - depth[par]
            children[par][b0] = (lab_full[:cut], vp)
            parent[vp] = par
            children[vp][lab_full[cut]] = (lab_full[cut:], v)
            parent[v] = vp
            inlinks.append(set())

            # every through-the-parent link into v now resolves to the new
            # node; keep only the ones spelling at most depth k there, and
            # re-pin the longer ones through the new lower edge
            for src, lbl in sorted(inlinks[v]):
                if uplinks[src].get(lbl) != (b0, par):
                    raise AssertionError("stored link out of sync with its endpoint")
                spell = depth[src] + 1
                if spell < k:
                    inlinks[v].discard((src, lbl))
                    inlinks[vp].add((src, lbl))
                elif spell == k:
                    inlinks[v].discard((src, lbl))
                    uplinks[src][lbl] = (None, vp)
                    counters.redirections += 1
                else:
                    uplinks[src][lbl] = (lab_full[cut], vp)

            # links of the split-off shallow class: labels still meaningful at
            # depth k keep their endpoints, plus the bundled 0-link
            def store(lbl: int, tgt: int) -> None:
                counters.new_links += 1
                if tgt == leaf:
                    uplinks[vp][lbl] = (None, leaf)
                    fresh.append((vp, lbl))
                elif depth[tgt] == k + 1:
                    uplinks[vp][lbl] = (None, tgt)
                else:
                    pt = parent[tgt]
                    uplinks[vp][lbl] = (_z(w_s[witness[tgt] + depth[pt]], depth[pt]), pt)
                    inlinks[tgt].add((vp, lbl))

            for lbl, st in list(uplinks[v].items()):
                if lbl < 0 or 0 < lbl <= k:
                    store(lbl, _simulate(tree, st))
            t0 = _trans_rtl(tree, v, k, 0)
            if t0 is not None:
                store(0, t0)
            host = vp

        # attach the new leaf and give every link toward it its final form
        leaf_label = tuple(
            _z(w_s[(n - i) + q - 1], q - 1) for q in range(depth[host] + 1, i + 1)
        )
        if leaf_label[0] in children[host]:
            raise AssertionError("leaf edge collides with an existing child")
        children[host][leaf_label[0]] = (leaf_label, leaf)
        parent[leaf] = host
        for src, lbl in fresh:
            if uplinks[src].get(lbl) == (None, leaf) and depth[src] + 1 != i:
                uplinks[src][lbl] = (leaf_label[0], host)
                inlinks[leaf].add((src, lbl))

        sink = leaf
        yield i, tree, counters


def build_pstree_rtl(s: PString | PvString) -> tuple[PSTree, RtlCounters]:
    """Build the suffix tree of s by prepending symbols one at a time."""
    for _i, tree, counters in rtl_steps(s):
        pass
    return tree, counters


def upward_links_to_pdawg(tree: PSTree) -> Pdawg:
    """Expand the stored upward links and reinterpret them as PDAWG edges."""
    links = [
        {lbl: _simulate(tree, st) for lbl, st in tree.uplinks[v].items()}
        for v in range(tree.node_count())
    ]
    return links_to_pdawg(tree, links)
