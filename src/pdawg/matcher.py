"""Parameterized pattern matching and occurrence location on a PDAWG.

Membership is a single walk from the source, one transition per pattern
symbol, and the one classifier of pattern symbols: a symbol in neither
alphabet raises AlphabetError wherever it stands.  The pattern's type picks
the walk: a `PString` over the text's statics is prev-encoded as it is
walked, and the walk stops at the first missing transition, reading the
later symbols only to classify them; a `PvString` is walked by its codes.
A static code takes a plain lookup in the node's static map and a distance
one in its integer map; code 0 takes one call to `_zero_target`, the
bundled-0 rule.
Locating needs one extra observation: the end positions of a class are
exactly the prefixes of the text whose class sits in that node's subtree of
the (reversed) suffix-link tree.  Counting those prefixes per subtree gives
every node a contiguous block of a position array, with no tree walk:
parents are placed before their children, by length.  The block is in tree
order, so `locate` sorts it; the index keeps each sorted answer of two or
more ends while the kept answers, each charged its ends and a fixed cost,
fit in as many pointer slots as the index's own three arrays hold, so a
class located again costs one dict lookup.
"""

from __future__ import annotations

from .pstrings import PString, PvString, pattern_codes
from .pdawg import Pdawg, _zero_target

# What keeping one answer costs beyond its ends, in pointer slots: the
# tuple's header, 5 slots with the collector's links (`sys.getsizeof(())` is
# 40 bytes on 64-bit CPython), and its dict entry's hash, key and value, 3.
# The dict's index and spare entries add about 1-4 more per answer.
KEPT_ANSWER_SLOTS = 8


def _walk(g: Pdawg, p: PString | PvString) -> int | None:
    """The node reached from the source by reading the pattern, or None if
    a transition is missing.

    The pattern's type picks the loop.  A `PString` over the text's statics
    is prev-encoded as it is read: a static takes its code and a parameter
    the distance to its previous occurrence, kept in `last`.  A `PvString`,
    or a `PString` over other statics, which `pattern_codes` rejects, is
    read by its codes.  Either way a symbol in neither alphabet, wherever it
    stands, raises through `Alphabet.encode_prev`.  No node is longer than
    the text and every edge leads to a longer node, so a pattern longer
    than the text meets a missing transition by its symbol n + 1.
    """
    a = g.alphabet
    statics, ints, lens, slinks = g.static_edges, g.int_edges, g.lens, g.slinks
    if not isinstance(p, PString) or (p.alphabet is not a and p.alphabet.sigma != a.sigma):
        u = g.source
        for i, c in enumerate(pattern_codes(p, a)):
            if c < 0:
                u = statics[u].get(c)
            elif c:
                u = ints[u].get(c)
            else:
                u = _zero_target(ints[u], i, lens[u], slinks)
            if u is None:
                return None
        return u
    raw, pa = p.raw, p.alphabet
    static, pi = pa._codes, pa.pi
    last: dict[str, int] = {}
    u = g.source
    for i, s in enumerate(raw):
        c = static.get(s)
        if c is not None:
            u = statics[u].get(c)
        else:
            j = last.get(s)
            if j is not None:
                u = ints[u].get(i - j)
            elif s in pi:
                u = _zero_target(ints[u], i, lens[u], slinks)
            else:
                pa.encode_prev(raw)  # raises, naming the symbol and its position
            last[s] = i
        if u is None:
            # the symbols not read must still be in one of the alphabets
            for s in raw[i + 1 :]:
                if s not in static and s not in pi:
                    pa.encode_prev(raw)
            return None
    return u


def p_match_query(g: Pdawg, p: PString | PvString) -> bool:
    """True iff some factor of the indexed text p-matches the pattern.

    A `PString` is prev-encoded as it is walked, and the walk stops at the
    first missing transition.
    """
    return _walk(g, p) is not None


class OccurrenceIndex:
    """The text prefixes laid out by the suffix-link tree: node u's block
    `positions[enter[u]:leave[u]]` holds its own prefix, if it has one, at
    `enter[u]`, then one block per child, so it lists exactly the prefixes
    in u's subtree.

    `located` maps a node to its block sorted, as `locate` returned it.
    `room` starts as the pointer slots of `positions`, `enter` and `leave`
    (n + 1 + 2N for N nodes, about 4n), and each kept answer spends its
    length plus `KEPT_ANSWER_SLOTS`, so the cache at most about doubles the
    index in bytes.  An answer with one end is never kept: a one-element
    slice rebuilds it.  Nothing is evicted.  Nothing is locked either:
    threads sharing an index get right answers, but may overshoot the
    bound."""

    __slots__ = ("g", "enter", "leave", "positions", "located", "room")

    def __init__(self, g: Pdawg):
        self.g = g
        lens, slinks, history = g.lens, g.slinks, g.sink_history
        # suffix links strictly shorten, so by length every parent comes
        # before its children; `order` leaves out the root, the source, node 0
        order = sorted(range(1, len(lens)), key=lens.__getitem__)
        leave = [0] * len(lens)
        for u in history:
            leave[u] = 1  # u's own prefix
        size = leave[:]  # prefixes in the subtree
        for u in reversed(order):
            size[slinks[u]] += size[u]
        # every offset and position is one of these ints, made in one run:
        # the arrays share n + 2 int objects instead of one per entry, and
        # `locate` sorts ints made in one run faster than scattered ones
        slot = list(range(len(history) + 1))
        # once u is placed, leave[u] is the next free slot of its block, and
        # once its children are placed too, the end of the block
        enter = [0] * len(lens)
        for u in order:
            p = slinks[u]
            e = enter[u] = leave[p]
            leave[p] = slot[e + size[u]]
            leave[u] = slot[leave[u] + e]
        self.enter = enter
        self.leave = leave
        positions = [0] * len(history)
        for i, u in zip(slot, history):
            positions[enter[u]] = i
        self.positions = positions
        self.located: dict[int, tuple[int, ...]] = {}
        self.room = len(positions) + len(enter) + len(leave)


def build_occurrence_index(g: Pdawg) -> OccurrenceIndex:
    return OccurrenceIndex(g)


def locate(idx: OccurrenceIndex, p: PString | PvString) -> tuple[int, ...]:
    """All 1-based end positions of the pattern, in increasing order.

    The empty pattern reports every position 0..n (it ends everywhere,
    including before the first symbol), and that answer is never cached.  A
    `PString` is prev-encoded as it is walked, and the walk stops at the
    first missing transition.  The first locate of a class sorts its block
    and keeps an answer of two or more ends while `idx.room` allows; a later
    one returns the same tuple, so answers may be shared between calls.
    """
    u = _walk(idx.g, p)
    if u is None:
        return ()
    if not len(p):
        return tuple(range(len(idx.g.text_codes) + 1))
    ends = idx.located.get(u)
    if ends is None:
        block = idx.positions[idx.enter[u] : idx.leave[u]]
        block.sort()
        ends = tuple(block)
        cost = len(ends) + KEPT_ANSWER_SLOTS
        if len(ends) > 1 and cost <= idx.room:
            idx.room -= cost
            idx.located[u] = ends
    return ends
