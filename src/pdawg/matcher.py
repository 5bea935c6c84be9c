"""Parameterized pattern matching and occurrence location on a PDAWG.

Membership is a single walk: feed the pattern's prev-encoding through `trans`,
position by position.  Locating needs one extra observation: the end positions
of a class are exactly the prefixes of the text whose class sits in that
node's subtree of the (reversed) suffix-link tree, so an euler tour turns
every node into a contiguous block of a position array.
"""

from __future__ import annotations

from .pstrings import PString, PvString, pattern_codes
from .pdawg import Pdawg, _trans


def _walk(g: Pdawg, codes: tuple[int, ...]) -> int | None:
    u = g.source
    for i, a in enumerate(codes):
        u = _trans(g, u, i, a)
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
    """The text prefixes listed in Euler-tour order of the suffix-link tree:
    the prefixes in the subtree of node u are `positions[enter[u]:leave[u]]`."""

    __slots__ = ("g", "enter", "leave", "positions")

    def __init__(self, g: Pdawg):
        self.g = g
        order: list[list[int]] = [[] for _ in range(len(g.lens))]
        for u in g.node_ids():
            if u != g.source:
                order[g.slinks[u]].append(u)
        lens, history = g.lens, g.sink_history
        enter = [0] * len(lens)
        leave = [0] * len(lens)
        # prefix classes have distinct lengths, so listing prefix i when the
        # tour enters its class lists every prefix in tour order
        prefix = list(range(len(history)))
        positions: list[int] = []
        k = 0  # len(positions)
        stack = [(g.source, False)]
        while stack:
            u, done = stack.pop()
            if done:
                leave[u] = k
                continue
            enter[u] = k
            i = lens[u]
            if history[i] == u:
                # not i itself: `locate` sorts slices of positions, and ints
                # made in one run sort faster than those the build scattered
                positions.append(prefix[i])
                k += 1
            stack.append((u, True))
            for ch in reversed(order[u]):
                stack.append((ch, False))
        self.enter = enter
        self.leave = leave
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
