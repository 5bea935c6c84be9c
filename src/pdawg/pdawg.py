"""The parameterized DAWG: smallest automaton of re-encoded factors.

Nodes are equivalence classes of factors sharing the same set of ending
positions in the text; edges extend the longest member of a class by one
symbol.  Each node keeps its labels in two maps that partition them: a
static map (the negative codes) and an integer map (0 and the distances),
so `g.static_edges[u]` and `g.int_edges[u]`; a node with no label of a kind
shares one read-only empty map.  Every reader here reads the two maps;
`g.edges[u]` is a read-only view that merges them, kept for the benchmark
harness, which reads each node's out-degree.

Because a back-reference distance can collapse to 0 when the context gets
short, reading symbol 0 is position-dependent: `_zero_target`, the one
bundled-0 rule, returns the target node in one call by looking at which
integer labels the current context length leaves compatible.  It reads the
integer map alone, at most |Pi| + 1 labels (0 and one distance per distinct
parameter of the node's longest string), and never a static label.  No
positive label exceeds its node's length (no builder writes one, and every
structure, a loaded index included, comes from a builder), so once the
context is as long as the node only the label 0 itself can follow symbol 0,
and the transition is one lookup instead of a scan of the integer map.

Node ids are arena indices.  The source is node 0 with suffix link None, so
the suffix-link tree is numbered as the suffix tree of the reversed text.

`build_online` adds one symbol at a time, maintaining the suffix links, in
the style of the classic DAWG construction: climb the suffix-link chain from
the old sink adding edges to the new sink, until a suffix survives or the
climb passes the source, find the longest repeated suffix, and split its
class when the class is too coarse.  A static symbol touches static maps
only, an integer symbol integer maps only.  The right-to-left tree builder
runs it over the reversed text.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from types import MappingProxyType
from typing import NamedTuple

from .pstrings import (
    Alphabet,
    PString,
    PvString,
    _pv,
    label_sort_key,
)

# the label map of every node with no label of a kind: read-only, so a
# write meant for one node cannot reach them all
_NO_LABELS: Mapping[int, int] = MappingProxyType({})


class ConstructionStats(NamedTuple):
    """Work counters for one online construction run, written once, when
    the build ends.

    `climb_visits` counts the chain nodes the climb from the old sink looks
    at; `redirections` counts the splits whose chain node of length k-1 had
    its edge redirected to the new class of length k: at most one per step;
    `redirected_secondary_edges` counts every redirected edge.
    `suffix_links_deleted` is derived, not counted: each split replaces one
    suffix link and adds one node, so it is nodes - n - 1.
    """

    redirected_secondary_edges: int = 0
    suffix_links_deleted: int = 0
    climb_visits: int = 0
    redirections: int = 0


class EdgeView(Sequence):
    """Read-only view of every node's out-edges: item u is a read-only map
    of node u's static and integer labels together.  It reads the
    automaton's live lists."""

    __slots__ = ("static_edges", "int_edges")

    def __init__(self, static_edges: list, int_edges: list):
        self.static_edges = static_edges
        self.int_edges = int_edges

    def __len__(self) -> int:
        return len(self.static_edges)

    def __getitem__(self, u: int) -> Mapping[int, int]:
        return MappingProxyType({**self.static_edges[u], **self.int_edges[u]})


class Pdawg:
    __slots__ = (
        "alphabet", "text_codes", "lens", "slinks", "static_edges", "int_edges", "sink_history",
    )
    source = 0

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.text_codes: tuple[int, ...] = ()
        # arena indexed by node id; the source is node 0, its suffix link None
        self.lens: list[int] = [0]
        self.slinks: list[int | None] = [None]
        # a node's static labels and its integer labels, in two maps
        self.static_edges: list[Mapping[int, int]] = [_NO_LABELS]
        self.int_edges: list[Mapping[int, int]] = [_NO_LABELS]
        self.sink_history: list[int] = [0]

    @property
    def edges(self) -> EdgeView:
        """Every node's whole out-map, read-only: `edges[u]` merges node u's
        static and integer maps."""
        return EdgeView(self.static_edges, self.int_edges)

    @property
    def sink(self) -> int:
        """The class of the whole text: the last entry of `sink_history`."""
        return self.sink_history[-1]

    def node_ids(self) -> range:
        return range(len(self.lens))

    def node_count(self) -> int:
        return len(self.lens)

    def edge_count(self) -> int:
        return sum(map(len, self.static_edges)) + sum(map(len, self.int_edges))

    def is_primary(self, u: int, target: int) -> bool:
        return self.lens[target] == self.lens[u] + 1


def _zero_target(labels: Mapping[int, int], i: int, length: int, slinks: list) -> int | None:
    """The node symbol 0 leads to, after i symbols were read, from a node
    with this integer map and this length, or None.

    Symbol 0 may be the image of any distance exceeding i, so label 0 and
    every distance label b > i are candidates.  A unique candidate is
    followed; several bundled ones all lead to one class, the suffix link
    (tree parent) of the target along the smallest positive candidate.  No
    positive label exceeds `length` (no builder writes one), so once
    i >= length only label 0 can follow, in one lookup.  The map holds no
    static label and at most |Pi| + 1 integer ones, label 0 and one distance
    per distinct parameter of the node's longest string, so a call reads at
    most |Pi| + 1 labels.
    """
    if i >= length:
        return labels.get(0)
    count = 0
    best = None
    for b in labels:
        if b > i:
            count += 1
            if best is None or b < best:
                best = b
    # fewer than two candidates in all: follow the one there is, if any
    if 0 in labels:
        if not count:
            return labels[0]
    elif count < 2:
        return None if best is None else labels[best]
    out = slinks[labels[best]]
    if out is None:
        raise AssertionError("symbol 0 consulted an unset suffix link")
    return out


def _lrs_bound(labels: Mapping[int, int], a: int) -> int:
    """Length of the longest repeated suffix when extension by integer `a`
    survives only through a bundled 0-label of a node with this integer map.

    The widest integer label m (0 is wider than any distance) caps the
    back-reference the repeated suffix can keep, so the length is the
    smaller of a and m in the label order.
    """
    m = 0 if 0 in labels else max(labels, default=None)
    if m is None:
        raise AssertionError("pre-LRS node lost its integer labels")
    return min(a, m, key=label_sort_key)


def build_online(t: PString | PvString) -> tuple[Pdawg, ConstructionStats]:
    """Build the PDAWG of `t` left to right, extending the empty automaton
    by one symbol at a time, and count the work.

    A step is a few dict operations per visited node, so call overhead is
    kept out of the loop: the steps are one plain loop with its counters in
    locals, the cut-off `pstrings._z` is spelled inline as
    `0 if a > L else a`, and the search for the longest repeated suffix and
    the split are spelled in the loop.  A static code climbs with plain
    lookups in static maps alone; an integer code cut to 0 costs one
    `_zero_target` call per visited node that has an integer map, the
    climb's only call.  A node's map of a kind is made when it gets its
    first label of that kind; until then its slot holds the shared empty map.

    Two facts hold at every step and are coded once, not tested in the
    loops.  The climb's first node is the old sink: it was made in the last
    step, and nothing writes to it after (that step's split writes only to
    its new class and to chain nodes), so it has no out-edge, and a distance
    is at most its length i-1, so it is not cut; its edge to the new sink is
    written before the climb, which starts at its suffix link.  And a static
    code is never cut, so the split's redirection climb is one loop per
    kind, the static one keyed on the code itself.  A redirected node is
    shorter than the new class and lengths fall along the chain, so only
    the first can have length k-1: `redirections` is counted once per
    split, not tested per redirected node.  When the climb stopped at the
    edge of the longest repeated suffix itself, that edge, from a node of
    length k-1, is the first to move, and it moves before the loop.

    A step whose repeated suffix survives only through a bundled 0-label
    always splits, and counts no redirection.  Say the climb stopped at u,
    of length L, with integer map M (not empty, or the climb goes on), let
    j = len(slink u) + 1, and let zau, the code a cut to L, be no label of
    M.  The climb did not stop on `a in M`, or zau would be a label, so it
    stopped on `_zero_target(M, j, ...)`: a is 0 or exceeds j, and M has
    the label 0 or a label b > j.  So j < k <= L for the length
    k = `_lrs_bound(M, a)`: with the label 0, zau is not 0, so j < a <= L
    and k = a; without it, the widest label m is in (j, L] and k is m or
    a.  The chain below u starts at slink u, of length j-1 < k-1, so no
    node of length k-1 is left to redirect.  And the class v of the
    repeated suffix, the target of symbol 0 from u after k-1 symbols, is
    longer than k.  With one candidate label v is its target, of length at
    least L+1.  With several, k is no label (k = a = zau, or k = m is the
    only candidate), so the smallest positive candidate is some b > k.  Let
    y and y' be the suffixes of length k-1 and b-1 of u's longest string;
    both are in u's class, so they end at the same places.  A symbol new in
    the k-1 symbols before it, after an end of y, has after u's longest
    string a code in M that is 0 or at least b, so it is new in the b-1
    before it too.  So y·0 and y'·0 end at the same places, and v is at
    least b long.
    """
    pv = _pv(t)
    g = Pdawg(pv.alphabet)
    codes = g.text_codes = pv.codes
    lens = g.lens
    slinks = g.slinks
    statics = g.static_edges
    ints = g.int_edges
    history = g.sink_history
    none = _NO_LABELS
    visits = redirected = redirections = 0
    sink = 0  # the sink of the empty text: the source

    for i, a in enumerate(codes, start=1):
        # the old sink has no out-edge and a uncut (see above): its edge to
        # the new sink is written, and the climb goes on from its suffix
        # link until some suffix one longer than the next chain node
        # survives extension by a
        old = sink
        sink = len(lens)
        lens.append(i)
        slinks.append(None)
        statics.append(none)
        ints.append(none)
        history.append(sink)
        visits += 1
        u = slinks[old]
        if a < 0:
            statics[old] = {a: sink}
            while u is not None:
                visits += 1
                labels = statics[u]
                if labels is none:
                    statics[u] = {a: sink}
                elif a in labels:
                    break
                else:
                    labels[a] = sink
                u = slinks[u]
        else:
            ints[old] = {a: sink}
            while u is not None:
                visits += 1
                s = slinks[u]
                labels = ints[u]
                L = lens[u]
                if labels is none:
                    # no integer label: nothing survives, not even through 0
                    ints[u] = {0 if a > L else a: sink}
                    u = s
                    continue
                # the context j = len(s) + 1 cuts a distance a > j to 0
                j = 0 if s is None else lens[s] + 1
                if 0 < a <= j:
                    if a in labels:
                        break
                elif _zero_target(labels, j, L, slinks) is not None:
                    break
                labels[0 if a > L else a] = sink
                u = s

        # the longest repeated suffix: its length k, the node v housing it,
        # and u, where the split's redirection climb goes on
        if u is None:
            # no suffix survives: the longest repeated suffix is the empty one
            slinks[sink] = 0
            continue
        L = lens[u]
        zau = 0 if a > L else a
        v = labels.get(zau)  # the climb stopped at u with labels of a's kind
        if v is not None:
            k = L + 1
            if lens[v] == k:
                slinks[sink] = v
                continue
            # u has length k-1, and its edge is the first to move
            vp = len(lens)
            labels[zau] = vp
            redirected += 1
            redirections += 1
        else:
            # only reachable for integer a: the surviving extension went
            # through a bundled 0-edge, so the repeated suffix is shorter
            # than len(u)+1, its class longer, and the step splits with no
            # redirection counted (see above)
            k = _lrs_bound(labels, a)
            v = _zero_target(labels, k - 1, L, slinks)
            if v is None:
                raise AssertionError("longest repeated suffix has no class")
            labels[zau] = sink
            vp = len(lens)
        u = slinks[u]

        # split class v: the new class vp takes its members of length <= k
        lens.append(k)
        slinks.append(slinks[v])
        # in-edges: every suffix of the new longest repeated suffix that still
        # reaches v from the chain belongs below the split point
        if a < 0:
            while u is not None:
                labels = statics[u]
                if labels.get(a) != v:
                    break
                labels[a] = vp
                redirected += 1
                u = slinks[u]
        else:
            while u is not None:
                key = 0 if a > lens[u] else a
                labels = ints[u]
                if labels.get(key) != v:
                    break
                labels[key] = vp
                redirected += 1
                u = slinks[u]
        # out-edges: every static label stays; keep the integer labels that
        # stay meaningful at length k, and since a label 0 is a candidate,
        # the 0-target at length k exists and replaces it
        labels = statics[v]
        statics.append(none if labels is none else labels.copy())
        labels = ints[v]
        if labels is none:
            ints.append(none)
        else:
            kept = {}
            for b, t in labels.items():
                if b <= k:
                    kept[b] = t
            t0 = _zero_target(labels, k, lens[v], slinks)
            if t0 is not None:
                kept[0] = t0
            ints.append(kept)
        slinks[v] = vp
        slinks[sink] = vp

    # one split per node beyond the source and the n prefix classes
    stats = ConstructionStats(redirected, len(lens) - len(codes) - 1, visits, redirections)
    return g, stats


# ---------------------------------------------------------------------------
# inspection, the index text codec


def _witness_ends(g: Pdawg) -> list[int | None]:
    """One end position of each node's class, indexed by node id, found by
    walking the suffix-link chain from every prefix class, longest first; a
    node on no chain (none, in a built structure) keeps None."""
    ends: list[int | None] = [None] * len(g.lens)
    ends[g.source] = 0
    for i in range(len(g.sink_history) - 1, 0, -1):
        u = g.sink_history[i]
        while ends[u] is None:
            ends[u] = i
            u = g.slinks[u]  # type: ignore[assignment]
    return ends


def stats_summary(g: Pdawg) -> dict:
    lens = g.lens
    # one pass over the nodes reads both maps of each
    primary = 0
    for L, static, ints in zip(lens, g.static_edges, g.int_edges):
        L += 1
        if static:
            for t in static.values():
                if lens[t] == L:
                    primary += 1
        if ints:
            for t in ints.values():
                if lens[t] == L:
                    primary += 1
    edges = g.edge_count()
    return {
        "n": len(g.text_codes),
        "nodes": g.node_count(),
        "edges": edges,
        "primary": primary,
        "secondary": edges - primary,
    }


def check_invariants(g: Pdawg) -> None:
    """Raise ValueError unless g has the shape of the PDAWG of its text.

    One linear pass over facts every PDAWG satisfies: the source is node 0
    with length 0; every other suffix link leads to a strictly shorter node,
    so the chains end at the source; a node's static map holds only negative
    labels and its integer map only non-negative ones; every edge leads to a
    longer node; a positive label points no further back than its node's
    length and a negative one names a static symbol; prefix i ends in a
    class of length i, reached from prefix i-1 along the edge labelled with
    text symbol i, so the primary spine spells the text; every node is on
    the suffix-link chain of some prefix; n >= 3 bounds the counts by 2n-1
    nodes and 3n-4 edges; and the text is a valid prev-encoding over the
    alphabet.
    """
    lens, slinks, statics, ints = g.lens, g.slinks, g.static_edges, g.int_edges
    count = len(lens)
    lowest = -len(g.alphabet.sigma)
    if not lens or lens[0] != 0 or slinks[0] is not None:
        raise ValueError("source must be node 0 with length 0 and no suffix link")
    for u in range(1, count):
        s = slinks[u]
        if s is None or not 0 <= s < count:
            raise ValueError(f"suffix link of node {u} out of range")
        if lens[s] >= lens[u]:
            raise ValueError(f"suffix link of node {u} is not shorter")
    edge_count = 0
    for static, maps in ((True, statics), (False, ints)):
        for u, (L, labels) in enumerate(zip(lens, maps)):
            if not labels:
                continue
            edge_count += len(labels)
            for b, t in labels.items():
                if (b < 0) is not static:
                    mine, other = ("static", "integer") if static else ("integer", "static")
                    raise ValueError(f"{mine} map of node {u} holds the {other} label {b}")
                if not 0 <= t < count:
                    raise ValueError(f"edge target of node {u} out of range")
                if lens[t] <= L:
                    raise ValueError(f"edge of node {u} does not lead to a longer node")
                if not lowest <= b <= L:
                    raise ValueError(
                        f"label {b} of node {u} is neither a static symbol"
                        " nor a distance within its length"
                    )
    w = g.text_codes
    n = len(w)
    history = g.sink_history
    if len(history) != n + 1:
        raise ValueError("sink history length disagrees with the text")
    on_chain = [True] + [False] * (count - 1)
    for i, h in enumerate(history):
        if not 0 <= h < count:
            raise ValueError("sink history entry out of range")
        if lens[h] != i:
            raise ValueError(f"sink history entry {i} has length {lens[h]}")
        while not on_chain[h]:
            on_chain[h] = True
            h = slinks[h]
    if not all(on_chain):
        raise ValueError("some node is on no suffix-link chain of a prefix")
    # text symbol i leads from prefix i-1 to prefix i
    if [(statics if c < 0 else ints)[h].get(c) for h, c in zip(history, w)] != history[1:]:
        raise ValueError("the primary spine does not spell the text")
    if n >= 3 and (count > 2 * n - 1 or edge_count > 3 * n - 4):
        raise ValueError(
            f"{count} nodes / {edge_count} edges exceed 2n-1 / 3n-4 at n={n}"
        )
    PvString(w, g.alphabet)  # raises unless w is a prev-encoding over Σ


def to_json_dict(g: Pdawg) -> dict:
    """The index body: the prev-encoded text and its length.  The text alone
    determines the PDAWG, so `from_json_dict` rebuilds the structure from it."""
    return {"n": len(g.text_codes), "text": list(g.text_codes)}


def _checked_text(
    d: dict, alphabet: Alphabet, text_codes: list[int] | tuple[int, ...]
) -> PvString:
    """`text_codes` as a checked `PvString`; ValueError unless they are 64-bit
    ints (not booleans), `d["n"]` is their count, and the `PvString`
    constructor accepts them over `alphabet`."""
    try:
        # JSON true and false would pass as 1 and 0
        if bool in set(map(type, text_codes)):
            raise TypeError("a text symbol is a boolean")
        w = tuple(array("q", text_codes))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed text: {exc}") from exc
    n = d.get("n")
    if type(n) is not int or n != len(w):
        raise ValueError(f"n disagrees with the text length {len(w)}: {n!r}")
    return PvString(w, alphabet)


def from_json_dict(
    d: dict, alphabet: Alphabet, text_codes: list[int] | tuple[int, ...]
) -> Pdawg:
    """Rebuild the PDAWG of `text_codes` with `build_online`, after the
    checks of `_checked_text`, which raise ValueError."""
    return build_online(_checked_text(d, alphabet, text_codes))[0]
