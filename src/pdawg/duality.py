"""Duality between the PDAWG of a text and the suffix tree of its reversal.

Reading the text backwards swaps the two structures: the suffix links of the
PDAWG of T, laid out as a tree, form the parameterized suffix tree of
reverse(T), and the PDAWG's edges reappear on that tree as Weiner links
(prepend-one-symbol links).  Primary edges correspond to links that land
exactly on a node ("explicit"), secondary edges to links whose landing point
is inside an edge and gets rounded down to the node below ("implicit").

This module extracts the tree from a PDAWG, computes Weiner links
definitionally, rebuilds a PDAWG from a bare tree offline, and checks the
correspondence point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pstrings import (
    _pv_reverse_codes,
    _z,
    format_codes,
    label_sort_key,
)
from .oracles import PSTree
from .pdawg import TOP, Pdawg, node_longest_codes


class StructureError(ValueError):
    """The input structure does not have the shape this operation requires."""


def _validate_tree(tree: PSTree) -> None:
    if tree.parent[0] is not None or tree.depth[0] != 0:
        raise StructureError("node 0 must be the root at depth 0")
    seen_child = set()
    for v in range(tree.node_count()):
        for first, (label, ch) in tree.children[v].items():
            if not label or label[0] != first:
                raise StructureError(f"edge {v}->{ch} mislabeled")
            if tree.parent[ch] != v:
                raise StructureError(f"node {ch} disagrees with its parent")
            if tree.depth[ch] - tree.depth[v] != len(label):
                raise StructureError(f"depth inversion on edge {v}->{ch}")
            seen_child.add(ch)
    for v in range(1, tree.node_count()):
        if v not in seen_child:
            raise StructureError(f"node {v} is disconnected")


def suffix_link_tree_as_pstree(g: Pdawg) -> PSTree:
    """The suffix-link tree of g, labelled as the suffix tree of reverse(text).

    Node strings are recovered through witness end positions (one occurrence
    per class, found by walking suffix-link chains from the prefix classes),
    so no per-node string is ever materialized beyond the edge labels.
    """
    w_t = g.text_codes
    n = len(w_t)
    w_s = _pv_reverse_codes(w_t)
    tree = PSTree(w_s, g.alphabet)
    tree.is_suffix[0] = True

    witness: list[int | None] = [None] * len(g.lens)
    witness[g.source] = 0
    for i in range(n, 0, -1):
        u = g.sink_history[i]
        while witness[u] is None:
            witness[u] = i
            u = g.slinks[u]  # type: ignore[assignment]

    suffix_classes = set(g.sink_history)
    tid = {g.source: 0}
    for u in sorted(g.node_ids(), key=lambda u: (g.lens[u], u)):
        if u == g.source:
            continue
        if witness[u] is None:
            raise StructureError("node unreachable along suffix-link chains")
        parent = g.slinks[u]
        s0 = n - witness[u]  # start of the witness occurrence, seen from S
        label = tuple(
            _z(w_s[s0 + q - 1], q - 1)
            for q in range(g.lens[parent] + 1, g.lens[u] + 1)
        )
        t = tree.new_node(g.lens[u], u in suffix_classes)
        if label[0] in tree.children[tid[parent]]:
            raise StructureError("suffix-link tree branches on equal first symbols")
        tree.attach(tid[parent], label, t)
        tid[u] = t
    return tree


def weiner_links(tree: PSTree) -> list[dict[int, int]]:
    """Prepend links of every node, definitionally: `links[v][a]` is a node.

    Prepending symbol `a` to a node string v gives a·v when a is static or a
    fresh parameter (0); prepending an old parameter occurrence means some
    0 inside v now points at the new front, so position a of v flips from 0
    to a and the front becomes 0.  The link exists iff the result is still a
    factor; it points at the shallowest node at or below its locus, so it is
    explicit (lands on the node itself) iff the target is one deeper than v.
    """
    strs = tree.node_strings()
    statics = sorted({c for c in tree.text_codes if c < 0})
    links: list[dict[int, int]] = []
    for sv in strs:
        out = {}
        for a in statics + [0] + [a for a in range(1, len(sv) + 1) if sv[a - 1] == 0]:
            if a < 0:
                alpha = (a,) + sv
            elif a == 0:
                alpha = (0,) + sv
            else:
                alpha = (0,) + sv[: a - 1] + (a,) + sv[a:]
            node = tree.descend(alpha)
            if node is not None:
                out[a] = node
        links.append(out)
    return links


def _suffix_nodes(tree: PSTree) -> list[int]:
    """Validate the tree and return its suffix node of every depth 0..n."""
    _validate_tree(tree)
    n = len(tree.text_codes)
    sfx = tree.suffix_node_by_depth()
    for d in range(n + 1):
        if d not in sfx:
            raise StructureError(f"no suffix node of depth {d}")
    return [sfx[d] for d in range(n + 1)]


def _to_pdawg(tree: PSTree, sfx: list[int], links: list[dict[int, int]]) -> Pdawg:
    g = Pdawg(tree.alphabet)
    g.text_codes = _pv_reverse_codes(tree.text_codes)
    count = tree.node_count()
    top_edges = g.edges[TOP]
    g.lens = [-1] + [tree.depth[v] for v in range(count)]
    g.slinks = [None] + [
        TOP if tree.parent[v] is None else tree.parent[v] + 1 for v in range(count)
    ]
    g.edges = [top_edges] + [
        {lbl: tgt + 1 for lbl, tgt in links[v].items()} for v in range(count)
    ]
    g.sink_history = [v + 1 for v in sfx]
    g.sink = g.sink_history[-1]
    return g


def links_to_pdawg(tree: PSTree, links: list[dict[int, int]]) -> Pdawg:
    """Interpret a link map (label -> node, per node) over the tree of S as
    the PDAWG of reverse(S)."""
    return _to_pdawg(tree, _suffix_nodes(tree), links)


def offline_build_pdawg(tree: PSTree) -> Pdawg:
    """Build the PDAWG of reverse(S) from the bare suffix tree of S.

    Seeds one link per suffix (the reversed suffix links that must exist),
    then pushes each seed up both paths; a label shrinks to 0 once the source
    node becomes too shallow to keep the back-reference meaningful, and the
    climb stops as soon as it runs into a link deposited earlier.
    """
    sfx = _suffix_nodes(tree)
    t_codes = _pv_reverse_codes(tree.text_codes)

    links: list[dict[int, int]] = [dict() for _ in range(tree.node_count())]
    parent, depth = tree.parent, tree.depth
    seeds = [(sfx[l - 1], t_codes[l - 1], sfx[l]) for l in range(1, len(sfx))]
    seeds.sort(key=lambda s: label_sort_key(s[1], tree.alphabet))
    for v, k, u in seeds:
        while True:
            lbl = k if k < 0 or depth[v] >= k else 0
            existing = links[v].get(lbl)
            if existing is not None:
                if existing != u:
                    raise AssertionError("conflicting propagated links")
                break
            links[v][lbl] = u
            pv = parent[v]
            if pv is None:
                break
            v = pv
            while depth[parent[u]] >= depth[v] + 1:  # type: ignore[index]
                u = parent[u]  # type: ignore[assignment]
    return _to_pdawg(tree, sfx, links)


@dataclass
class DualityReport:
    items: dict[str, dict]

    def all_pass(self) -> bool:
        return all(item["pass"] for item in self.items.values())

    def to_json_dict(self) -> dict:
        return {
            name: {"pass": item["pass"], **({"witness": item["witness"]} if not item["pass"] else {})}
            for name, item in self.items.items()
        }


def verify_duality(g: Pdawg, tree: PSTree) -> DualityReport:
    """Check the four-point correspondence between g and the tree of reverse(text).

    Items: (1) node strings are mutual reversals, (2) primary edges are
    exactly the explicit Weiner links, (3) secondary edges are exactly the
    implicit ones, (4) suffix links mirror the tree edges.
    """
    links = weiner_links(tree)
    names = node_longest_codes(g)
    rev = {u: _pv_reverse_codes(names[u]) for u in g.node_ids()}
    strs = tree.node_strings()

    def fmt(codes: tuple[int, ...]) -> str:
        return format_codes(codes, tree.alphabet) or "(empty)"

    items: dict[str, dict] = {}

    a_nodes = {rev[u] for u in g.node_ids()}
    b_nodes = set(strs)
    diff = a_nodes.symmetric_difference(b_nodes)
    items["item1"] = {
        "pass": not diff,
        "witness": None if not diff else f"unmatched node string {fmt(sorted(diff)[0])}",
    }

    pd_edges = {True: set(), False: set()}
    for u in g.node_ids():
        for lbl, tgt in g.edges[u].items():
            pd_edges[g.lens[tgt] == g.lens[u] + 1].add((rev[u], lbl, rev[tgt]))
    tw_links = {True: set(), False: set()}
    for v in range(tree.node_count()):
        for lbl, tgt in links[v].items():
            tw_links[tree.depth[tgt] == tree.depth[v] + 1].add((strs[v], lbl, strs[tgt]))
    for name, flag in (("item2", True), ("item3", False)):
        diff = pd_edges[flag].symmetric_difference(tw_links[flag])
        witness = None
        if diff:
            s, lbl, t = sorted(diff)[0]
            kind = "primary/explicit" if flag else "secondary/implicit"
            witness = f"unmatched {kind}: {fmt(s)} -[{fmt((lbl,))}]-> {fmt(t)}"
        items[name] = {"pass": not diff, "witness": witness}

    a_sl = {(rev[g.slinks[u]], rev[u]) for u in g.node_ids() if u != g.source}
    b_sl = {(strs[tree.parent[v]], strs[v]) for v in range(1, tree.node_count())}
    diff = a_sl.symmetric_difference(b_sl)
    witness = None
    if diff:
        s, t = sorted(diff)[0]
        witness = f"unmatched suffix link / tree edge: {fmt(s)} -> {fmt(t)}"
    items["item4"] = {"pass": not diff, "witness": witness}

    return DualityReport(items=items)
