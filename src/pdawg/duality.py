"""Duality between the PDAWG of a text and the suffix tree of its reversal.

Reading the text backwards swaps the two structures: the suffix links of the
PDAWG of T, laid out as a tree, form the parameterized suffix tree of
reverse(T), and the PDAWG's edges reappear on that tree as Weiner links
(prepend-one-symbol links).  Primary edges correspond to links that land
exactly on a node ("explicit"), secondary edges to links whose landing point
is inside an edge and gets rounded down to the node below ("implicit").  So
a tree keeps its Weiner links in the automaton's own form, a static and an
integer label map per node, and the two structures hand them over with no
conversion.

This module holds the tree type, `PSTree`, and extracts the tree from a
PDAWG (the one reader of a tree off an automaton), builds the tree right to
left by reading it off the online automaton of the reversed text
(prepending to S appends to reverse(S), so the tree after i prepended
symbols is `build_pstree_rtl` of S's last i symbols), and rebuilds a PDAWG
from a bare tree offline.  A tree edge label is a span of the reversed text
(`PSTree.label` reads it); the extracted tree takes each span from the
witness occurrence of its class, so it stores no label codes.  The
definitional Weiner links (`oracles.weiner_links`) and the point-by-point
check of the correspondence (`verify.verify_duality`) live with the other
checks.
"""

from __future__ import annotations

from collections.abc import Mapping

from .pstrings import (
    Alphabet,
    PString,
    PvString,
    _pv,
    _pv_reverse_codes,
    _re_encode_codes,
    _z,
    label_sort_key,
    pv_reverse,
)
from .pdawg import (
    _NO_LABELS,
    ConstructionStats,
    Pdawg,
    _witness_ends,
    build_online,
    check_invariants,
)


class StructureError(ValueError):
    """The input structure does not have the shape this operation requires."""


class PSTree:
    """Compacted tree of re-encoded suffixes.

    Nodes are the root, every branching inner node, and every node whose
    string is a re-encoded suffix (suffix ends stay explicit even when they
    do not branch).  An edge label is a span of the text, a `range` of
    0-based positions in `text_codes` as long as the edge, read by `label`.
    A node's Weiner links are kept as an automaton keeps its edges, in two
    label maps: `static_links[v]` and `int_links[v]` map each static label,
    and each integer one, to the node its link leads to.
    `suffix_link_tree_as_pstree` sets the two lists to the
    automaton's `static_edges` and `int_edges`; the other builders leave
    every map empty.
    """

    __slots__ = (
        "parent",
        "depth",
        "children",
        "is_suffix",
        "static_links",
        "int_links",
        "text_codes",
        "alphabet",
    )
    root = 0

    def __init__(self, text_codes: tuple[int, ...], alphabet: Alphabet):
        self.parent: list[int | None] = [None]
        self.depth: list[int] = [0]
        # first code of the edge label -> (its span of the text, child id)
        self.children: list[dict[int, tuple[range, int]]] = [{}]
        self.is_suffix: list[bool] = [False]
        self.static_links: list[Mapping[int, int]] = [{}]
        self.int_links: list[Mapping[int, int]] = [{}]
        self.text_codes = text_codes
        self.alphabet = alphabet

    def node_count(self) -> int:
        return len(self.parent)

    def new_node(self, depth: int, is_suffix: bool = False) -> int:
        self.parent.append(None)
        self.depth.append(depth)
        self.children.append({})
        self.is_suffix.append(is_suffix)
        self.static_links.append({})
        self.int_links.append({})
        return len(self.parent) - 1

    def attach(self, parent: int, span: range, child: int) -> None:
        head = self.label(parent, span[:1])
        if not head:
            raise ValueError("tree edges carry nonempty spans of the text")
        self.children[parent][head[0]] = (span, child)
        self.parent[child] = parent

    def label(self, v: int, span: range) -> tuple[int, ...]:
        """The codes of the edge label `span` below node v: the text there,
        read after v's depth of context."""
        return _re_encode_codes(self.text_codes[span.start : span.stop], self.depth[v])

    def node_spans(self) -> list[range]:
        """The span each node's string is read from at the root: the span of
        the edge into the node, stretched back by the parent's depth."""
        out = [range(0)] * self.node_count()
        for kids in self.children:
            for span, ch in kids.values():
                out[ch] = range(span.stop - self.depth[ch], span.stop)
        return out

    def node_strings(self) -> list[tuple[int, ...]]:
        return [self.label(0, span) for span in self.node_spans()]

    def descend(self, codes: tuple[int, ...]) -> int | None:
        """The shallowest node at or below the locus of `codes`, or None when
        the string is not present.  Labels are read off the text in place,
        after the child's key: after q symbols a code c reads as `_z(c, q)`."""
        text = self.text_codes
        u = 0
        q = 0
        m = len(codes)
        while q < m:
            ent = self.children[u].get(codes[q])
            if ent is None:
                return None
            span, u = ent
            shift = span.start - q
            stop = min(q + len(span), m)
            q += 1
            while q < stop:
                c = text[shift + q]
                if codes[q] != (0 if c > q else c):
                    return None
                q += 1
        return u

    def canonical_form(self) -> dict:
        strs = self.node_strings()
        out = {}
        for v in range(self.node_count()):
            # a child's string fixes the label of the edge into it
            kids = tuple(sorted(strs[ch] for _span, ch in self.children[v].values()))
            out[strs[v]] = (self.depth[v], self.is_suffix[v], kids)
        return out


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
    under g's node ids: `depth`, `parent`, `static_links` and `int_links`
    are g's `lens`, `slinks`, `static_edges` and `int_edges` lists, not
    copies, and the edge into a node spans its class's witness occurrence in
    the reversed text from its parent's depth on.  One pass over the nodes,
    with no sort.

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
    tree.depth, tree.parent = lens, slinks
    tree.static_links, tree.int_links = g.static_edges, g.int_edges
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


def build_pstree_rtl(s: PString | PvString) -> tuple[PSTree, ConstructionStats]:
    """Build the suffix tree of s by prepending symbols one at a time: the
    online build of reverse(s), and the tree read off it once.  The first
    i symbols of reverse(s) reverse the last i symbols of s, so the tree
    after i steps is `build_pstree_rtl` of that suffix."""
    g, stats = build_online(pv_reverse(_pv(s)))
    return suffix_link_tree_as_pstree(g), stats


def _suffix_nodes(tree: PSTree) -> list[int]:
    """Validate the tree and return its suffix node of every depth 0..n."""
    _validate_tree(tree)
    n = len(tree.text_codes)
    sfx = {tree.depth[v]: v for v in range(tree.node_count()) if tree.is_suffix[v]}
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


def upward_links_to_pdawg(tree: PSTree) -> Pdawg:
    """Reinterpret the tree's Weiner links over S as the PDAWG of reverse(S):
    its static and integer links are the edge maps, copied, so the result
    shares no map with the tree; StructureError unless it passes
    `check_invariants`."""
    g = _to_pdawg(
        tree,
        _suffix_nodes(tree),
        list(map(dict, tree.static_links)),
        list(map(dict, tree.int_links)),
    )
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
