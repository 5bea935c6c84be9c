"""Parameterized pattern matching and occurrence location on a PDAWG.

Membership is a single walk: feed the pattern's prev-encoding through `trans`,
position by position.  Locating needs one extra observation: the end positions
of a class are exactly the prefixes of the text whose class sits in that
node's subtree of the (reversed) suffix-link tree.  Counting those prefixes
per subtree gives every node a contiguous block of a position array, with no
tree walk: parents are placed before their children, by length.
"""

from __future__ import annotations

from .pstrings import PString, PvString, pattern_codes
from .pdawg import Pdawg, trans


def _walk(g: Pdawg, codes: tuple[int, ...]) -> int | None:
    u = g.source
    for i, a in enumerate(codes):
        u = trans(g, u, i, a)
        if u is None:
            return None
    return u


def p_match_query(g: Pdawg, p: PString | PvString) -> bool:
    """True iff some factor of the indexed text p-matches the pattern."""
    codes = pattern_codes(p, g.alphabet)
    if len(codes) > len(g.text_codes):
        return False
    return _walk(g, codes) is not None


class OccurrenceIndex:
    """The text prefixes laid out by the suffix-link tree: node u's block
    `positions[enter[u]:leave[u]]` holds its own prefix, if it has one, at
    `enter[u]`, then one block per child, so it lists exactly the prefixes
    in u's subtree."""

    __slots__ = ("g", "enter", "leave", "positions")

    def __init__(self, g: Pdawg):
        self.g = g
        lens, slinks, history = g.lens, g.slinks, g.sink_history
        # suffix links strictly shorten, so by length every parent comes
        # before its children; `if u` skips the source, node 0, the root
        order = sorted(range(len(lens)), key=lens.__getitem__)
        leave = [0] * len(lens)
        for u in history:
            leave[u] = 1  # u's own prefix
        size = leave[:]  # prefixes in the subtree
        for u in reversed(order):
            if u:
                size[slinks[u]] += size[u]
        # every offset and position is one of these ints, made in one run:
        # the arrays share n + 2 int objects instead of one per entry, and
        # `locate` sorts ints made in one run faster than scattered ones
        slot = list(range(len(history) + 1))
        # once u is placed, leave[u] is the next free slot of its block, and
        # once its children are placed too, the end of the block
        enter = [0] * len(lens)
        for u in order:
            if u:
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


def build_occurrence_index(g: Pdawg) -> OccurrenceIndex:
    return OccurrenceIndex(g)


def locate(idx: OccurrenceIndex, p: PString | PvString) -> tuple[int, ...]:
    """All 1-based end positions of the pattern, in increasing order.

    The empty pattern reports every position 0..n (it ends everywhere,
    including before the first symbol).
    """
    g = idx.g
    codes = pattern_codes(p, g.alphabet)
    n = len(g.text_codes)
    if not codes:
        return tuple(range(n + 1))
    if len(codes) > n:
        return ()
    u = _walk(g, codes)
    if u is None:
        return ()
    return tuple(sorted(idx.positions[idx.enter[u] : idx.leave[u]]))
