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

Node ids are arena indices.  The source is node 0 with suffix link None, so
the suffix-link tree is numbered as the suffix tree of the reversed text.

`_online_steps` adds one symbol at a time, maintaining the suffix links, in
the style of the classic DAWG construction: climb the suffix-link chain from
the old sink adding edges to the new sink, until a suffix survives or the
climb passes the source, find the longest repeated suffix, and split its
class when the class is too coarse.  `build_online` runs those steps over the
text, and the right-to-left tree builder over the reversed text.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator

from .pstrings import (
    Alphabet,
    PString,
    PvString,
    _pv,
    _re_encode_codes,
    label_sort_key,
)

@dataclass
class ConstructionStats:
    """Work counters for one online construction run."""

    redirected_secondary_edges: int = 0
    suffix_links_deleted: int = 0
    # chain nodes the climb from the old sink looks at
    climb_visits: int = 0
    # splits whose chain node of length k-1 had its edge redirected to the
    # new class of length k: at most one per step
    redirections: int = 0


class Pdawg:
    __slots__ = ("alphabet", "text_codes", "lens", "slinks", "edges", "source", "sink_history")

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet
        self.text_codes: tuple[int, ...] = ()
        # arena indexed by node id; the source is node 0, its suffix link None
        self.lens: list[int] = [0]
        self.slinks: list[int | None] = [None]
        self.edges: list[dict[int, int]] = [{}]
        self.source = 0
        self.sink_history: list[int] = [0]

    @property
    def sink(self) -> int:
        """The class of the whole text: the last entry of `sink_history`."""
        return self.sink_history[-1]

    def node_ids(self) -> range:
        return range(len(self.lens))

    def node_count(self) -> int:
        return len(self.lens)

    def edge_count(self) -> int:
        return sum(map(len, self.edges))

    def is_primary(self, u: int, target: int) -> bool:
        return self.lens[target] == self.lens[u] + 1


def _zero_label(labels: dict, i: int, length: int) -> int | None:
    """Which label of `labels`, on a node of this length, symbol 0 follows
    after i symbols were read.

    Symbol 0 may be the image of any distance exceeding i, so every integer
    label b with b = 0 or b > i is a candidate.  None means no candidate, a
    label >= 0 is the unique candidate, to be followed directly, and -b means
    several bundled candidates: they all lead to one class, the suffix link
    (tree parent) of the target along b, the smallest positive candidate:
    the plain integer minimum, which is the label order restricted to
    positive labels.
    Relies on no positive label exceeding `length`, which holds because
    every structure comes from a builder and no builder writes one.
    A node has at most as many positive labels as its longest string has
    distinct parameters (each reaches back to the last occurrence of one),
    so at most |Pi|; the scan also reads the node's static labels, which
    that bound does not cover.
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
    back-reference the repeated suffix can keep, so the length is the
    smaller of a and m in the label order.
    """
    m = 0 if 0 in labels else max([b for b in labels if b > 0], default=None)
    if m is None:
        raise AssertionError("pre-LRS node lost its integer labels")
    return min(a, m, key=label_sort_key)


def trans(g: Pdawg, u: int, i: int, a: int) -> int | None:
    """Transition from u reading the code `a` after having read i symbols.

    A static code or a positive distance follows a plain edge; code 0 is
    resolved by `_zero_label`.
    """
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


def _online_steps(g: Pdawg, stats: ConstructionStats) -> Iterator[tuple[int, int] | None]:
    """Extend the empty automaton g by each symbol of `g.text_codes` in turn,
    counting the work in `stats`, and yield after every symbol: (v, vp) when
    the step split class v off the new class vp, otherwise None.

    A step is a few dict operations per visited node, so call overhead is
    kept out of the loop.  The context cut-off `pstrings._z` is spelled
    inline as `0 if a > L else a`: calling it costs 8-21% of the build.  A
    code other than 0 takes a plain lookup, and only code 0 calls `trans`,
    whose bundled rule it holds: a call at every visited node cost 4-8% of
    the build at n = 1e4 on the bench families.  The search for the longest
    repeated suffix and the split are spelled in the loop, not as closures,
    and a split adds its redirected edges to `stats` once: that cut the
    build by 3-13% on those families.  `stats` is current at every yield.
    """
    lens = g.lens
    slinks = g.slinks
    edges = g.edges
    history = g.sink_history

    for i, a in enumerate(g.text_codes, start=1):
        sink = len(lens)
        lens.append(i)
        slinks.append(None)
        edges.append({})

        # climb from the old sink adding edges to the new sink until some
        # suffix one longer than the next chain node survives extension by a
        u = history[-1]
        visits = 0
        while u is not None:
            visits += 1
            s = slinks[u]
            j = 0 if s is None else lens[s] + 1
            eu = edges[u]
            za = 0 if a > j else a
            if za:
                if za in eu:
                    break
            elif trans(g, u, j, 0) is not None:
                break
            L = lens[u]
            eu[0 if a > L else a] = sink
            u = s
        stats.climb_visits += visits
        history.append(sink)

        # the longest repeated suffix: its length k, the node v housing it,
        # and u, where the split-redirection climb starts
        if u is None:
            # no suffix survives: the longest repeated suffix is the empty one
            slinks[sink] = g.source
            yield None
            continue
        L = lens[u]
        zau = 0 if a > L else a
        eu = edges[u]
        v = eu.get(zau)
        if v is not None:
            k = L + 1
        else:
            # only reachable for integer a: the surviving extension went
            # through a bundled 0-edge, so the repeated suffix is shorter
            # than len(u)+1
            k = _lrs_bound(eu, a)
            v = trans(g, u, k - 1, 0)
            if v is None:
                raise AssertionError("longest repeated suffix has no class")
            eu[zau] = sink
            u = slinks[u]
        if lens[v] == k:
            slinks[sink] = v
            yield None
            continue

        # split class v: the new class vp takes its members of length <= k
        vp = len(lens)
        lens.append(k)
        slinks.append(None)
        evp = {}
        edges.append(evp)
        stats.suffix_links_deleted += 1
        # in-edges: every suffix of the new longest repeated suffix that still
        # reaches v from the chain belongs below the split point
        redirected = 0
        while u is not None:
            L = lens[u]
            key = 0 if a > L else a
            eu = edges[u]
            if eu.get(key) != v:
                break
            eu[key] = vp
            redirected += 1
            if L == k - 1:
                stats.redirections += 1
            u = slinks[u]
        stats.redirected_secondary_edges += redirected
        # out-edges: keep the labels that stay meaningful at length k
        for b, tgt in edges[v].items():
            if b < 0 or 0 < b <= k:
                evp[b] = tgt
        t0 = trans(g, v, k, 0)
        if t0 is not None:
            evp[0] = t0
        slinks[vp] = slinks[v]
        slinks[v] = vp
        slinks[sink] = vp
        yield v, vp


def build_online(t: PString | PvString) -> tuple[Pdawg, ConstructionStats]:
    """Build the PDAWG of `t` left to right, one `_online_steps` step per
    symbol."""
    pv = _pv(t)
    g = Pdawg(pv.alphabet)
    g.text_codes = pv.codes
    stats = ConstructionStats()
    for _split in _online_steps(g, stats):
        pass
    return g, stats


# ---------------------------------------------------------------------------
# inspection, comparison, the index text codec


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


def node_longest_codes(g: Pdawg) -> list[tuple[int, ...]]:
    """Longest member of each node's class, indexed by node id, read off the
    text at the node's witness end position."""
    ends = _witness_ends(g)
    if None in ends:
        raise AssertionError("some node is on no suffix-link chain")
    w = g.text_codes
    return [_re_encode_codes(w[i - L : i]) for i, L in zip(ends, g.lens)]  # type: ignore[operator]


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
        out[name] = (g.lens[u], None if sl is None else names[sl], edges)
    return out


def stats_summary(g: Pdawg) -> dict:
    primary = sum(
        1
        for u in g.node_ids()
        for tgt in g.edges[u].values()
        if g.lens[tgt] == g.lens[u] + 1
    )
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
    if g.source != 0 or not lens or lens[0] != 0 or slinks[0] is not None:
        raise ValueError("source must be node 0 with length 0 and no suffix link")
    for u in range(1, count):
        s = slinks[u]
        if s is None or not 0 <= s < count:
            raise ValueError(f"suffix link of node {u} out of range")
        if lens[s] >= lens[u]:
            raise ValueError(f"suffix link of node {u} is not shorter")
    edge_count = 0
    for u in range(count):
        L = lens[u]
        eu = edges[u]
        edge_count += len(eu)
        for b, t in eu.items():
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
    if list(map(dict.get, map(edges.__getitem__, history[:-1]), w)) != history[1:]:
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
