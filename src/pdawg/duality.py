"""Duality between the PDAWG of a text and the suffix tree of its reversal.

Reading the text backwards swaps the two structures: the suffix links of the
PDAWG of T, laid out as a tree, form the parameterized suffix tree of
reverse(T), and the PDAWG's edges reappear on that tree as Weiner links
(prepend-one-symbol links).  Primary edges correspond to links that land
exactly on a node ("explicit"), secondary edges to links whose landing point
is inside an edge and gets rounded down to the node below ("implicit").

This module extracts the tree from a PDAWG, computes Weiner links
definitionally, rebuilds a PDAWG from a bare tree offline, and checks the
correspondence point by point.  A tree edge label is a span of the reversed
text (`PSTree.label` reads it); the extracted tree takes each span from the
witness occurrence of its class, so it stores no label codes.
"""

from __future__ import annotations

from collections import Counter

from .pstrings import (
    _pv_reverse_codes,
    _z,
    format_codes,
    label_sort_key,
)
from .oracles import PSTree
from .pdawg import Pdawg, _witness_ends, check_invariants, node_longest_codes


class StructureError(ValueError):
    """The input structure does not have the shape this operation requires."""


def _validate_tree(tree: PSTree) -> None:
    if tree.parent[0] is not None or tree.depth[0] != 0:
        raise StructureError("node 0 must be the root at depth 0")
    text, depth = tree.text_codes, tree.depth
    n = len(text)
    seen_child = set()
    for v in range(tree.node_count()):
        for first, (span, ch) in tree.children[v].items():
            if not (
                isinstance(span, range) and span.step == 1 and 0 <= span.start < span.stop <= n
            ):
                raise StructureError(f"edge {v}->{ch} is not a nonempty span of the text")
            if _z(text[span.start], depth[v]) != first:
                raise StructureError(f"edge {v}->{ch} mislabeled")
            if tree.parent[ch] != v:
                raise StructureError(f"node {ch} disagrees with its parent")
            if depth[ch] - depth[v] != len(span):
                raise StructureError(f"depth inversion on edge {v}->{ch}")
            seen_child.add(ch)
    for v in range(1, tree.node_count()):
        if v not in seen_child:
            raise StructureError(f"node {v} is disconnected")


def suffix_link_tree_as_pstree(g: Pdawg) -> PSTree:
    """The suffix-link tree of g, labelled as the suffix tree of reverse(text):
    tree node t is the t-th class of g by (length, id), and the edge into it
    spans the class's witness occurrence in the reversed text from its
    parent's depth on."""
    witness = _witness_ends(g)
    if None in witness:
        raise StructureError("node unreachable along suffix-link chains")
    tree = PSTree(_pv_reverse_codes(g.text_codes), g.alphabet)
    n = len(tree.text_codes)
    tree.is_suffix[0] = True
    suffix_classes = set(g.sink_history)
    tid = {g.source: 0}
    # sorted is stable, so equal lengths stay in id order
    for u in sorted(g.node_ids(), key=g.lens.__getitem__)[1:]:
        parent = g.slinks[u]
        s0 = n - witness[u]  # start of the witness occurrence in reverse(text)
        t = tree.new_node(g.lens[u], u in suffix_classes)
        tree.attach(tid[parent], range(s0 + g.lens[parent], s0 + g.lens[u]), t)
        tid[u] = t
    if sum(map(len, tree.children)) < tree.node_count() - 1:
        raise StructureError("suffix-link tree branches on equal first symbols")
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
    # copies: the right-to-left builder keeps growing a tree it has yielded
    g.lens = list(tree.depth)
    g.slinks = list(tree.parent)
    g.edges = links
    g.sink_history = sfx
    return g


def links_to_pdawg(tree: PSTree, links: list[dict[int, int]]) -> Pdawg:
    """Interpret a link map (label -> node, per node) over the tree of S as
    the PDAWG of reverse(S); StructureError unless the result passes
    `check_invariants`."""
    g = _to_pdawg(tree, _suffix_nodes(tree), links)
    try:
        check_invariants(g)
    except ValueError as exc:
        raise StructureError(f"links do not form a PDAWG: {exc}") from exc
    return g


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
    seeds.sort(key=lambda s: label_sort_key(s[1]))
    for v, k, u in seeds:
        while True:
            lbl = _z(k, depth[v])
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


def _first_unmatched(a: Counter, b: Counter):
    """The smallest element whose multiplicity differs in a and b, or None."""
    diff = (a - b) + (b - a)
    return min(diff) if diff else None


def verify_duality(g: Pdawg, tree: PSTree) -> str | None:
    """Check the four-point correspondence between g and the tree of reverse(text).

    Items: (1) node strings are mutual reversals, (2) primary edges are
    exactly the explicit Weiner links, (3) secondary edges are exactly the
    implicit ones, (4) suffix links mirror the tree edges.  Each item
    compares multisets, so (2) and (3) also equate the explicit and implicit
    link counts with the primary and secondary edge counts.  Returns None
    when all four hold, or a description of the first unmatched element of
    the first failing item.
    """
    links = weiner_links(tree)
    names = node_longest_codes(g)
    rev = [_pv_reverse_codes(name) for name in names]
    strs = tree.node_strings()

    def fmt(codes: tuple[int, ...]) -> str:
        return format_codes(codes, tree.alphabet) or "(empty)"

    odd = _first_unmatched(Counter(rev), Counter(strs))
    if odd is not None:
        return f"duality item1 fails: unmatched node string {fmt(odd)}"

    pd_edges: dict[bool, Counter] = {True: Counter(), False: Counter()}
    for u in g.node_ids():
        for lbl, tgt in g.edges[u].items():
            pd_edges[g.lens[tgt] == g.lens[u] + 1][rev[u], lbl, rev[tgt]] += 1
    tw_links: dict[bool, Counter] = {True: Counter(), False: Counter()}
    for v in range(tree.node_count()):
        for lbl, tgt in links[v].items():
            tw_links[tree.depth[tgt] == tree.depth[v] + 1][strs[v], lbl, strs[tgt]] += 1
    for name, flag in (("item2", True), ("item3", False)):
        odd = _first_unmatched(pd_edges[flag], tw_links[flag])
        if odd is not None:
            s, lbl, t = odd
            kind = "primary/explicit" if flag else "secondary/implicit"
            return (
                f"duality {name} fails: unmatched {kind}:"
                f" {fmt(s)} -[{fmt((lbl,))}]-> {fmt(t)}"
            )

    odd = _first_unmatched(
        Counter((rev[g.slinks[u]], rev[u]) for u in g.node_ids() if u != g.source),
        Counter((strs[tree.parent[v]], strs[v]) for v in range(1, tree.node_count())),
    )
    if odd is not None:
        s, t = odd
        return (
            "duality item4 fails: unmatched suffix link / tree edge:"
            f" {fmt(s)} -> {fmt(t)}"
        )
    return None
