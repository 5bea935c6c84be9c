"""The parameterized DAWG: smallest automaton of re-encoded factors.

Nodes are equivalence classes of factors sharing the same set of ending
positions in the text; edges extend the longest member of a class by one
symbol.  Because a back-reference distance can collapse to 0 when the context
gets short, following an edge labelled 0 is position-dependent: `trans`
resolves it by looking at how many integer labels are still compatible with
the current context length.  No positive label exceeds its node's length
(no builder writes one, and every structure, a loaded index included, comes
from a builder), so once the context is as long as the node only the label 0
itself can follow symbol 0, and the transition is one lookup instead of a
scan of the node's labels.

`build_online` adds one symbol at a time, maintaining the suffix links, in the
style of the classic DAWG construction: climb the suffix-link chain from the
old sink adding edges to the new sink, find the longest repeated suffix, and
split its class when the class is too coarse.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .pstrings import (
    Alphabet,
    PString,
    PvString,
    PvSymbol,
    _check_codes,
    _code_of_symbol,
    _re_encode_codes,
)

TOP = 0  # auxiliary node above the source; never counted or exported


@dataclass
class ConstructionStats:
    """Work counters for one online construction run."""

    redirected_secondary_edges: int = 0
    suffix_links_deleted: int = 0
    trace: list[dict] | None = None


class Pdawg:
    __slots__ = ("alphabet", "text_codes", "lens", "slinks", "edges", "source", "sink", "sink_history")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.text_codes: tuple[int, ...] = ()
        # arena; index 0 is the auxiliary top node
        self.lens: list[int] = [-1, 0]
        self.slinks: list[int | None] = [None, TOP]
        self.edges: list[dict[int, int]] = [{}, {}]
        self.source = 1
        self.sink = 1
        self.sink_history: list[int] = [1]
        # top behaves as if every alphabet symbol led to the source
        top = self.edges[TOP]
        top[0] = self.source
        for s in alphabet.sigma:
            top[alphabet.static_code(s)] = self.source

    def node_ids(self) -> range:
        return range(1, len(self.lens))

    def node_count(self) -> int:
        return len(self.lens) - 1

    def edge_count(self) -> int:
        return sum(len(self.edges[u]) for u in self.node_ids())

    def is_primary(self, u: int, target: int) -> bool:
        return self.lens[target] == self.lens[u] + 1

    def length_of(self, u: int) -> int:
        return self.lens[u]


def _zero_label(labels: dict, i: int, length: int) -> int | None:
    """Which label of `labels`, on a node of this length, symbol 0 follows
    after i symbols were read.

    Symbol 0 may be the image of any distance exceeding i, so every integer
    label b with b = 0 or b > i is a candidate.  None means no candidate, a
    label >= 0 is the unique candidate, to be followed directly, and -b means
    several bundled candidates: they all lead to one class, the suffix link
    (tree parent) of the target along b, the smallest positive candidate.
    Relies on no positive label exceeding `length`, which holds because
    every structure comes from a builder and no builder writes one.
    """
    if i >= length:
        # no distance label exceeds the node's length, so only 0 can follow
        return 0 if 0 in labels else None
    only = None
    count = 0
    best = None
    for b in labels:
        if b >= 0 and (b == 0 or b > i):
            count += 1
            only = b
            if b != 0 and (best is None or b < best):
                best = b
    if count == 0:
        return None
    if count == 1:
        return only
    return -best  # type: ignore[operator]


def _lrs_bound(labels: dict, a: int) -> int:
    """Length of the longest repeated suffix when extension by integer `a`
    survives only through a bundled 0-label of a node with these labels.

    The widest integer label m (0 is wider than any distance) caps the
    back-reference the repeated suffix can keep.
    """
    m = None
    for b in labels:
        if b >= 0 and (m is None or (m != 0 and (b == 0 or b > m))):
            m = b
    if m is None:
        raise AssertionError("pre-LRS node lost its integer labels")
    return m if a == 0 else (a if m == 0 else min(a, m))


def _trans(g: Pdawg, u: int, i: int, a: int) -> int | None:
    """Transition from u reading symbol `a` after having read i symbols.

    Static symbols and positive distances follow plain edges; symbol 0 is
    resolved by `_zero_label`.
    """
    if u == TOP:
        return g.source
    eu = g.edges[u]
    if a != 0:
        return eu.get(a)
    b = _zero_label(eu, i, g.lens[u])
    if b is None:
        return None
    if b >= 0:
        return eu[b]
    out = g.slinks[eu[-b]]
    if out is None:
        raise AssertionError("trans consulted an unset suffix link")
    return out


def trans(g: Pdawg, u: int, i: int, a: PvSymbol) -> int | None:
    """Public transition; `a` is a symbol, `i` the number of symbols read so far."""
    return _trans(g, u, i, _code_of_symbol(a, g.alphabet))


def build_online(
    t: PString | PvString, collect_trace: bool = False
) -> tuple[Pdawg, ConstructionStats]:
    """Build the PDAWG of `t` left to right, one symbol per step."""
    pv = t.prev() if isinstance(t, PString) else t
    w = pv.codes
    g = Pdawg(pv.alphabet)
    g.text_codes = w
    stats = ConstructionStats(trace=[] if collect_trace else None)

    lens = g.lens
    slinks = g.slinks
    edges = g.edges

    def find_prelrs(u: int, a: int, sink: int) -> int:
        # climb from the old sink adding edges to the new sink until some
        # suffix one longer than the next chain node survives extension by a
        while u != TOP:
            j = lens[slinks[u]] + 1
            if _trans(g, u, j, a if a < 0 or a <= j else 0) is not None:
                break
            L = lens[u]
            edges[u][a if a < 0 or a <= L else 0] = sink
            u = slinks[u]
        return u

    def lrs_length(u: int, a: int, sink: int) -> tuple[int, int, int]:
        # length k of the longest repeated suffix, the node v housing it,
        # and where the split-redirection climb should start
        L = lens[u]
        zau = a if a < 0 or a <= L else 0
        eu = edges[u]
        v = eu.get(zau)
        if v is not None:
            return lens[u] + 1, v, u
        # only reachable for integer a: the surviving extension went through
        # a bundled 0-edge, so the repeated suffix is shorter than len(u)+1
        k = _lrs_bound(eu, a)
        v = _trans(g, u, k - 1, 0)
        if v is None:
            raise AssertionError("longest repeated suffix has no class")
        eu[zau] = sink
        return k, v, slinks[u]

    def split_node(v: int, k: int, u: int, a: int) -> int:
        vp = len(lens)
        lens.append(k)
        slinks.append(None)
        edges.append({})
        stats.suffix_links_deleted += 1
        # in-edges: every suffix of the new longest repeated suffix that still
        # reaches v from the chain belongs below the split point
        while True:
            L = lens[u]
            key = a if a < 0 or a <= L else 0
            if edges[u].get(key) != v:
                break
            edges[u][key] = vp
            stats.redirected_secondary_edges += 1
            u = slinks[u]
        # out-edges: keep the labels that stay meaningful at length k
        evp = edges[vp]
        for b, tgt in edges[v].items():
            if b < 0 or 0 < b <= k:
                evp[b] = tgt
        t0 = _trans(g, v, k, 0)
        if t0 is not None:
            evp[0] = t0
        slinks[vp] = slinks[v]
        slinks[v] = vp
        return vp

    for i, a in enumerate(w, start=1):
        sink = len(lens)
        lens.append(i)
        slinks.append(None)
        edges.append({})
        before = stats.redirected_secondary_edges

        u = find_prelrs(g.sink, a, sink)
        k, v, u = lrs_length(u, a, sink)
        if lens[v] == k:
            slinks[sink] = v
            split = False
        else:
            slinks[sink] = split_node(v, k, u, a)
            split = True

        g.sink = sink
        g.sink_history.append(sink)
        if stats.trace is not None:
            stats.trace.append(
                {
                    "i": i,
                    "symbol": a,
                    "lrs_len": k,
                    "split": split,
                    "redirected": stats.redirected_secondary_edges - before,
                }
            )

    return g, stats


# ---------------------------------------------------------------------------
# inspection, comparison, the index text codec


def node_longest_codes(g: Pdawg) -> list[tuple[int, ...] | None]:
    """Longest member of each node's class, indexed by node id.

    Recovered by walking suffix-link chains from every prefix class, which
    covers every node including ones with no incoming edges.
    """
    w = g.text_codes
    out: list[tuple[int, ...] | None] = [None] * len(g.lens)
    out[g.source] = ()
    for i in range(len(g.sink_history) - 1, 0, -1):
        u = g.sink_history[i]
        while out[u] is None:
            out[u] = _re_encode_codes(w[i - g.lens[u] : i])
            u = g.slinks[u]  # type: ignore[assignment]
    if any(s is None for s in out[1:]):
        raise AssertionError("some node is on no suffix-link chain")
    return out


def canonical_form(g: Pdawg) -> dict:
    """Graph keyed by class-longest strings; equal forms mean equal structures."""
    names = node_longest_codes(g)
    out = {}
    for u in g.node_ids():
        name = names[u]
        edges = tuple(
            sorted(
                (lbl, names[tgt], g.lens[tgt] == g.lens[u] + 1)
                for lbl, tgt in g.edges[u].items()
            )
        )
        sl = g.slinks[u]
        out[name] = (g.lens[u], None if sl == TOP else names[sl], edges)
    return out


def stats_summary(g: Pdawg) -> dict:
    primary = sum(
        1
        for u in g.node_ids()
        for tgt in g.edges[u].values()
        if g.lens[tgt] == g.lens[u] + 1
    )
    edges = g.edge_count()
    depth = [0] * len(g.lens)
    best = 0
    for u in sorted(g.node_ids(), key=lambda u: g.lens[u]):
        sl = g.slinks[u]
        if u != g.source:
            depth[u] = depth[sl] + 1
            best = max(best, depth[u])
    return {
        "n": len(g.text_codes),
        "nodes": g.node_count(),
        "edges": edges,
        "primary": primary,
        "secondary": edges - primary,
        "slink_depth": best,
    }


def check_invariants(g: Pdawg) -> None:
    """Raise ValueError unless g has the shape of the PDAWG of its text.

    One linear pass over facts every PDAWG satisfies: the source is node 0
    with length 0; every other suffix link leads to a strictly shorter node,
    so the chains end at the source; every edge leads to a longer node; a
    positive label points no further back than its node's length and a
    negative one names a static symbol; prefix i ends in a class of length i,
    reached from prefix i-1 along the edge labelled with text symbol i, so
    the primary spine spells the text; every node is on the suffix-link chain
    of some prefix; n >= 3 bounds the counts by 2n-1 nodes and 3n-4 edges;
    and the text is a valid prev-encoding over the alphabet.
    """
    lens, slinks, edges = g.lens, g.slinks, g.edges
    count = len(lens)
    lowest = -len(g.alphabet.sigma)
    if g.source != 1 or count < 2 or lens[1] != 0 or slinks[1] != TOP:
        raise ValueError("source must be node 0 with length 0 and no suffix link")
    for u in range(2, count):
        s = slinks[u]
        if not 1 <= s < count:
            raise ValueError(f"suffix link of node {u - 1} out of range")
        if lens[s] >= lens[u]:
            raise ValueError(f"suffix link of node {u - 1} is not shorter")
    edge_count = 0
    for u in range(1, count):
        L = lens[u]
        eu = edges[u]
        edge_count += len(eu)
        for b, t in eu.items():
            if not 1 <= t < count:
                raise ValueError(f"edge target of node {u - 1} out of range")
            if lens[t] <= L:
                raise ValueError(f"edge of node {u - 1} does not lead to a longer node")
            if not lowest <= b <= L:
                raise ValueError(
                    f"label {b} of node {u - 1} is neither a static symbol"
                    " nor a distance within its length"
                )
    w = g.text_codes
    n = len(w)
    history = g.sink_history
    if len(history) != n + 1:
        raise ValueError("sink history length disagrees with the text")
    on_chain = [True] + [False] * (count - 1)
    for i, h in enumerate(history):
        if not 1 <= h < count:
            raise ValueError("sink history entry out of range")
        if lens[h] != i:
            raise ValueError(f"sink history entry {i} has length {lens[h]}")
        while not on_chain[h]:
            on_chain[h] = True
            h = slinks[h]
    if not all(on_chain):
        raise ValueError("some node is on no suffix-link chain of a prefix")
    # text symbol i leads from prefix i-1 to prefix i
    if list(map(dict.get, map(edges.__getitem__, history[:-1]), w)) != history[1:]:
        raise ValueError("the primary spine does not spell the text")
    if n >= 3 and (count - 1 > 2 * n - 1 or edge_count > 3 * n - 4):
        raise ValueError(
            f"{count - 1} nodes / {edge_count} edges exceed 2n-1 / 3n-4 at n={n}"
        )
    if n and min(w) < lowest:
        raise ValueError("text symbol outside the static alphabet")
    _check_codes(w)


def to_json_dict(g: Pdawg) -> dict:
    """The index body: the prev-encoded text and its length.  The text alone
    determines the PDAWG, so `from_json_dict` rebuilds the structure from it."""
    return {"n": len(g.text_codes), "text": list(g.text_codes)}


def from_json_dict(
    d: dict, alphabet: Alphabet, text_codes: list[int] | tuple[int, ...]
) -> Pdawg:
    """Rebuild the PDAWG of `text_codes` with `build_online`; ValueError
    unless the codes are 64-bit ints, `d["n"]` is their count, and they form
    a valid prev-encoding over the static symbols of `alphabet`."""
    try:
        w = tuple(array("q", text_codes))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed text: {exc}") from exc
    if d.get("n") != len(w):
        raise ValueError(f"n disagrees with the text length {len(w)}")
    if w and min(w) < -len(alphabet.sigma):
        raise ValueError("text symbol outside the static alphabet")
    _check_codes(w)
    return build_online(PvString._from_codes(w, alphabet))[0]
