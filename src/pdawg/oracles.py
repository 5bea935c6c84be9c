"""Brute-force reference structures over parameterized strings.

Everything here is deliberately simple and quadratic-or-worse: these objects
define what the fast structures must compute, and the test-suite compares the
two on exhaustive small inputs.  All of them work on the prev-encoded text.
The naive suffix tree is a `duality.PSTree`, the type the product builds,
and `weiner_links` computes a tree's Weiner links by definition, one
descent per candidate symbol.  No product module imports this one.
"""

from __future__ import annotations

from .duality import PSTree
from .pstrings import (
    Alphabet,
    PString,
    PvString,
    _pv,
    _re_encode_codes,
    _z,
    label_sort_key,
    pattern_codes,
)


def rpos(w: PvString, x: PString | PvString) -> tuple[int, ...]:
    """All 1-based end positions of occurrences of x in w (0 marks the empty prefix).

    Position i is in the result iff the length-|x| window of w ending at i
    re-encodes to x.  The empty pattern occurs at every position 0..|w|.
    """
    wc = w.codes
    xc = pattern_codes(x, w.alphabet)
    n, m = len(wc), len(xc)
    if m == 0:
        return tuple(range(n + 1))
    return tuple(
        i
        for i in range(m, n + 1)
        if _re_encode_codes(wc[i - m : i]) == xc
    )


def scan_occurrences(t: PString | PvString, p: PString | PvString) -> tuple[int, ...]:
    """End positions of parameterized occurrences of p in t, by direct scan."""
    pv = _pv(t)
    if not pattern_codes(p, pv.alphabet):
        raise ValueError("scan_occurrences requires a nonempty pattern")
    return rpos(pv, p)


# ---------------------------------------------------------------------------
# parameterized suffix trie and the minimal suffix automaton


class PSTrie:
    """Trie of the re-encoded suffixes of the text (one node per factor)."""

    __slots__ = ("children", "is_suffix", "start", "text_codes", "alphabet")
    root = 0

    def __init__(self, text_codes: tuple[int, ...], alphabet: Alphabet):
        self.children: list[dict[int, int]] = [{}]
        self.is_suffix: list[bool] = [False]
        self.start: list[int] = [0]  # 0-based start of one suffix through the node
        self.text_codes = text_codes
        self.alphabet = alphabet

    def new_node(self, start: int) -> int:
        self.children.append({})
        self.is_suffix.append(False)
        self.start.append(start)
        return len(self.children) - 1

    def node_count(self) -> int:
        return len(self.children)

    def accepts(self, codes: tuple[int, ...]) -> bool:
        u = 0
        for c in codes:
            nxt = self.children[u].get(c)
            if nxt is None:
                return False
            u = nxt
        return self.is_suffix[u]

    def factor_strings(self) -> set[tuple[int, ...]]:
        out = set()
        stack = [(0, ())]
        while stack:
            u, s = stack.pop()
            out.add(s)
            for c, ch in self.children[u].items():
                stack.append((ch, s + (c,)))
        return out


def build_pstrie(t: PString | PvString) -> PSTrie:
    pv = _pv(t)
    w = pv.codes
    trie = PSTrie(w, pv.alphabet)
    n = len(w)
    for s0 in range(n + 1):
        u = trie.root
        for d in range(s0, n):
            c = _z(w[d], d - s0)
            nxt = trie.children[u].get(c)
            if nxt is None:
                nxt = trie.new_node(s0)
                trie.children[u][c] = nxt
            u = nxt
        trie.is_suffix[u] = True
    return trie


class PSAuto:
    """Minimal DFA for the set of re-encoded suffixes (dead state left implicit)."""

    __slots__ = ("transitions", "accepting", "initial")

    def __init__(self, transitions: list[dict[int, int]], accepting: list[bool]):
        self.transitions = transitions
        self.accepting = accepting
        self.initial = 0

    def state_count(self) -> int:
        return len(self.transitions)

    def accepts(self, codes: tuple[int, ...]) -> bool:
        u = 0
        for c in codes:
            nxt = self.transitions[u].get(c)
            if nxt is None:
                return False
            u = nxt
        return self.accepting[u]


def build_psauto(t: PString | PvString) -> PSAuto:
    """Hopcroft-free minimization: refine trie states by Moore iterations.

    Every trie node is co-accessible, so no live node ever collapses with the
    implicit dead state and signatures over present edges alone are sound.
    """
    trie = build_pstrie(t)
    n = trie.node_count()
    block = [1 if acc else 0 for acc in trie.is_suffix]
    while True:
        sigs = [
            (block[u], tuple(sorted((c, block[ch]) for c, ch in trie.children[u].items())))
            for u in range(n)
        ]
        remap: dict[tuple, int] = {}
        new_block = []
        for u in range(n):
            b = remap.setdefault(sigs[u], len(remap))
            new_block.append(b)
        if len(remap) == len(set(block)):
            block = new_block
            break
        block = new_block

    # number the blocks by first appearance so the result is deterministic
    order: dict[int, int] = {}
    for u in range(n):
        order.setdefault(block[u], len(order))
    k = len(order)
    transitions: list[dict[int, int]] = [{} for _ in range(k)]
    accepting: list[bool | None] = [None] * k
    for u in range(n):
        b = order[block[u]]
        if accepting[b] is None:
            accepting[b] = trie.is_suffix[u]
        elif accepting[b] != trie.is_suffix[u]:
            raise AssertionError("refinement merged accepting and rejecting states")
        for c, ch in trie.children[u].items():
            tgt = order[block[ch]]
            if transitions[b].setdefault(c, tgt) != tgt:
                raise AssertionError("refinement merged states with different transitions")
    return PSAuto(transitions, [bool(x) for x in accepting])


# ---------------------------------------------------------------------------
# definitional PDAWG: right-position equivalence classes


class OracleClass:
    """One equivalence class of factors sharing the same end-position set."""

    def __init__(self, members: tuple[tuple[int, ...], ...], positions: tuple[int, ...]):
        self.members = members  # sorted by length; last is the longest
        self.positions = positions
        self.edges: dict[int, int] = {}
        self.slink: int | None = None

    @property
    def longest(self) -> tuple[int, ...]:
        return self.members[-1]

    @property
    def shortest(self) -> tuple[int, ...]:
        return self.members[0]


class OraclePdawg:
    def __init__(
        self,
        classes: list[OracleClass],
        source: int,
        sink: int,
        text_codes: tuple[int, ...],
        alphabet: Alphabet,
    ):
        self.classes = classes
        self.source = source
        self.sink = sink
        self.text_codes = text_codes
        self.alphabet = alphabet

    def node_count(self) -> int:
        return len(self.classes)

    def edge_count(self) -> int:
        return sum(len(c.edges) for c in self.classes)

    def canonical_form(self) -> dict:
        """Class-level description keyed by longest member; see verify.canonical_form."""
        out = {}
        for c in self.classes:
            edges = tuple(
                sorted(
                    (
                        lbl,
                        self.classes[tgt].longest,
                        len(self.classes[tgt].longest) == len(c.longest) + 1,
                    )
                    for lbl, tgt in c.edges.items()
                )
            )
            sl = None if c.slink is None else self.classes[c.slink].longest
            out[c.longest] = (len(c.longest), sl, edges)
        return out


def build_oracle_pdawg(t: PString | PvString) -> OraclePdawg:
    pv = _pv(t)
    w = pv.codes
    n = len(w)

    # end-position sets of every distinct re-encoded factor
    ends: dict[tuple[int, ...], list[int]] = {(): list(range(n + 1))}
    for s0 in range(n):
        acc: list[int] = []
        for d in range(s0, n):
            acc.append(_z(w[d], d - s0))
            ends.setdefault(tuple(acc), []).append(d + 1)

    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for factor, pos in ends.items():
        groups.setdefault(tuple(pos), []).append(factor)

    classes: list[OracleClass] = []
    class_of: dict[tuple[int, ...], int] = {}
    for pos in sorted(groups, key=lambda p: (len(groups[p][0]), p)):
        members = tuple(sorted(groups[pos], key=len))
        idx = len(classes)
        classes.append(OracleClass(members=members, positions=pos))
        for m in members:
            class_of[m] = idx

    for c in classes:
        y = c.longest
        for i in c.positions:
            if i < n:
                lbl = _z(w[i], len(y))
                tgt = class_of[y + (lbl,)]
                prev = c.edges.get(lbl)
                if prev is not None and prev != tgt:
                    raise AssertionError("inconsistent extension targets in one class")
                c.edges[lbl] = tgt
        if c.shortest:
            c.slink = class_of[_re_encode_codes(c.shortest[1:])]

    return OraclePdawg(
        classes=classes,
        source=class_of[()],
        sink=class_of[w],
        text_codes=w,
        alphabet=pv.alphabet,
    )


# ---------------------------------------------------------------------------
# parameterized suffix tree: definitional Weiner links, and the naive
# construction by trie compaction


def weiner_links(tree: PSTree) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Prepend links of every node, definitionally, as `(static_links,
    int_links)`: `static_links[v][a]` is a node for a static a, and
    `int_links[v][a]` for an integer one.

    Prepending symbol `a` to a node string v gives a·v when a is static or a
    fresh parameter (0); prepending an old parameter occurrence means some
    0 inside v now points at the new front, so position a of v flips from 0
    to a and the front becomes 0.  The link exists iff the result is still a
    factor; it points at the shallowest node at or below its locus, so it is
    explicit (lands on the node itself) iff the target is one deeper than v.
    """
    strs = tree.node_strings()
    statics = sorted({c for c in tree.text_codes if c < 0})
    static_links: list[dict[int, int]] = []
    int_links: list[dict[int, int]] = []
    for sv in strs:
        static: dict[int, int] = {}
        integer: dict[int, int] = {}
        for a in statics + [0] + [a for a in range(1, len(sv) + 1) if sv[a - 1] == 0]:
            if a < 0:
                alpha = (a,) + sv
            elif a == 0:
                alpha = (0,) + sv
            else:
                alpha = (0,) + sv[: a - 1] + (a,) + sv[a:]
            node = tree.descend(alpha)
            if node is not None:
                (static if a < 0 else integer)[a] = node
        static_links.append(static)
        int_links.append(integer)
    return static_links, int_links


def build_pstree_naive(t: PString | PvString) -> PSTree:
    trie = build_pstrie(t)
    tree = PSTree(trie.text_codes, trie.alphabet)
    tree.is_suffix[0] = trie.is_suffix[0]

    # DFS from the trie root: a kept trie node hangs below the last kept one
    # by the span of its recorded suffix between the two depths
    stack = [(0, 0, 0)]  # (trie node, its depth, tree node above it)
    while stack:
        u, d, parent = stack.pop()
        if u and (trie.is_suffix[u] or len(trie.children[u]) >= 2):
            v = tree.new_node(d, trie.is_suffix[u])
            s0 = trie.start[u]
            tree.attach(parent, range(s0 + tree.depth[parent], s0 + d), v)
            parent = v
        for c in sorted(trie.children[u], key=label_sort_key, reverse=True):
            stack.append((trie.children[u][c], d + 1, parent))
    return tree


def tree_equal(a: PSTree, b: PSTree) -> bool:
    return a.canonical_form() == b.canonical_form()
