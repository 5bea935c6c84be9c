"""Duality between the PDAWG of a text and the suffix tree of its reversal.

Reading the text backwards swaps the two structures: the suffix links of the
PDAWG of T, laid out as a tree, form the parameterized suffix tree of
reverse(T), and the PDAWG's edges reappear on that tree as Weiner links
(prepend-one-symbol links).  Primary edges correspond to links that land
exactly on a node ("explicit"), secondary edges to links whose landing point
is inside an edge and gets rounded down to the node below ("implicit").

This module extracts the tree from a PDAWG (the one reader of a tree off
an automaton), builds the tree right to left by reading it off the online
automaton of the reversed text (prepending to S appends to reverse(S)),
computes Weiner links definitionally, rebuilds a PDAWG from a bare tree
offline, and checks the correspondence point by point.  A tree edge label
is a span of the reversed text (`PSTree.label` reads it); the extracted
tree takes each span from the witness occurrence of its class, so it
stores no label codes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Mapping, Sequence

from .pstrings import (
    PString,
    PvString,
    _pv,
    _pv_reverse_codes,
    _z,
    format_codes,
    label_sort_key,
    pv_reverse,
)
from .oracles import PSTree
from .pdawg import (
    _NO_LABELS,
    ConstructionStats,
    Pdawg,
    _online_steps,
    _witness_ends,
    build_online,
    check_invariants,
    node_longest_codes,
)


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
    """The suffix-link tree of g, labelled as the suffix tree of reverse(text),
    under g's node ids: `depth` and `parent` are g's `lens` and `slinks`
    lists, not copies, `uplinks` is g's `edges` view of its live label maps,
    and the edge into a node spans its class's witness occurrence in the
    reversed text from its parent's depth on.  One pass over the nodes, with
    no sort.

    Spans index the whole of reverse(text), so an online build stopped after
    i symbols gives the suffix tree of the last i symbols of reverse(text).
    """
    witness = _witness_ends(g)
    if None in witness:
        raise StructureError("node unreachable along suffix-link chains")
    lens, slinks = g.lens, g.slinks
    text = _pv_reverse_codes(g.text_codes)
    n = len(text)
    tree = PSTree(text, g.alphabet)
    tree.depth, tree.parent, tree.uplinks = lens, slinks, g.edges
    children: list[dict[int, tuple[range, int]]] = [{} for _ in lens]
    is_suffix = [False] * len(lens)
    for u in g.sink_history:
        is_suffix[u] = True
    for u in range(1, len(lens)):
        p = slinks[u]
        d = lens[p]
        s0 = n - witness[u] + d  # where the edge into u starts in reverse(text)
        children[p][_z(text[s0], d)] = (range(s0, s0 + lens[u] - d), u)
    tree.children, tree.is_suffix = children, is_suffix
    if sum(map(len, children)) < len(lens) - 1:
        raise StructureError("suffix-link tree branches on equal first symbols")
    return tree


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


def _to_pdawg(
    tree: PSTree,
    sfx: list[int],
    static_edges: list[dict[int, int]],
    int_edges: list[dict[int, int]],
) -> Pdawg:
    """The automaton of the tree's arrays and these label maps, one static
    and one integer map per node; an empty map becomes the shared one."""
    g = Pdawg(tree.alphabet)
    g.text_codes = _pv_reverse_codes(tree.text_codes)
    # copies: a tree read off an automaton shares that automaton's lists
    g.lens = list(tree.depth)
    g.slinks = list(tree.parent)
    g.static_edges = [m or _NO_LABELS for m in static_edges]
    g.int_edges = [m or _NO_LABELS for m in int_edges]
    g.sink_history = sfx
    return g


def links_to_pdawg(tree: PSTree, links: Sequence[Mapping[int, int]]) -> Pdawg:
    """Interpret a link map (label -> node, per node) over the tree of S as
    the PDAWG of reverse(S), each node's links split into maps of its own by
    kind; StructureError unless the result passes `check_invariants`."""
    static_edges, int_edges = [], []
    for m in links:
        static, integer = {}, {}
        for b, t in m.items():
            (static if b < 0 else integer)[b] = t
        static_edges.append(static)
        int_edges.append(integer)
    g = _to_pdawg(tree, _suffix_nodes(tree), static_edges, int_edges)
    try:
        check_invariants(g)
    except ValueError as exc:
        raise StructureError(f"links do not form a PDAWG: {exc}") from exc
    return g


def upward_links_to_pdawg(tree: PSTree) -> Pdawg:
    """Reinterpret the tree's Weiner links as the PDAWG of the reversed text,
    in label maps of its own."""
    return links_to_pdawg(tree, tree.uplinks)


def offline_build_pdawg(tree: PSTree) -> Pdawg:
    """Build the PDAWG of reverse(S) from the bare suffix tree of S.

    Seeds one link per suffix (the reversed suffix links that must exist),
    then pushes each seed up both paths; a label shrinks to 0 once the source
    node becomes too shallow to keep the back-reference meaningful, and the
    climb stops as soon as it runs into a link deposited earlier.
    """
    sfx = _suffix_nodes(tree)
    t_codes = _pv_reverse_codes(tree.text_codes)

    static_edges: list[dict[int, int]] = [{} for _ in range(tree.node_count())]
    int_edges: list[dict[int, int]] = [{} for _ in range(tree.node_count())]
    parent, depth = tree.parent, tree.depth
    seeds = [(sfx[l - 1], t_codes[l - 1], sfx[l]) for l in range(1, len(sfx))]
    seeds.sort(key=lambda s: label_sort_key(s[1]))
    for v, k, u in seeds:
        # a static label stays static up the tree, an integer one an integer
        links = static_edges if k < 0 else int_edges
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
    return _to_pdawg(tree, sfx, static_edges, int_edges)


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
