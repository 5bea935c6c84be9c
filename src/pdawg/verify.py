"""Cross-checks of the fast structures against the brute-force oracles.

Each `check_*` function builds what it needs from its input and returns None
when everything agrees, or a one-line description of the first disagreement.
`pdawg selftest` and the acceptance tests run these same checks.
"""

from __future__ import annotations

from typing import Iterable

from .duality import (
    offline_build_pdawg,
    rtl_steps,
    suffix_link_tree_as_pstree,
    verify_duality,
    weiner_links,
)
from .matcher import build_occurrence_index, locate, p_match_query
from .oracles import (
    build_oracle_pdawg,
    build_psauto,
    build_pstree_naive,
    rpos,
    tree_equal,
)
from .pdawg import Pdawg, build_online, canonical_form, check_invariants
from .pstrings import Alphabet, PString, PvString, prev_decode, pv_reverse, re_encode


def separation_text(k: int) -> PString:
    """T_k = x1 a1 ... xk ak repeated twice: k parameters, k statics, length 4k.

    The doubled block forces a minimal suffix automaton to distinguish
    quadratically many parameter contexts while the PDAWG stays linear in
    the text length.
    """
    block = [s for i in range(1, k + 1) for s in (f"x{i}", f"a{i}")]
    sigma = [f"a{i}" for i in range(1, k + 1)]
    pi = [f"x{i}" for i in range(1, k + 1)]
    return PString(block + block, Alphabet(sigma, pi))


def check_encodings(pv: PvString) -> str | None:
    """Reversal is an involution, decoding inverts encoding, and re-encoding
    the whole text or any window of it changes nothing."""
    if pv_reverse(pv_reverse(pv)) != pv:
        return "reversal applied twice is not the identity"
    if prev_decode(pv).prev().codes != pv.codes:
        return "decode does not invert the encoding"
    if re_encode(pv) != pv:
        return "whole-text re-encoding is not a fixpoint"
    n = len(pv)
    for i in range(1, n + 1):
        for j in range(i - 1, n + 1):
            win = pv.window(i, j)
            if re_encode(win) != win:
                return f"window ({i},{j}) re-encoding is not a fixpoint"
    return None


def check_pdawg(pv: PvString) -> str | None:
    """The online automaton passes `check_invariants` and equals the
    class-enumeration oracle."""
    g, _stats = build_online(pv)
    try:
        check_invariants(g)
    except ValueError as exc:
        return f"invariant broken: {exc}"
    if canonical_form(g) != build_oracle_pdawg(pv).canonical_form():
        return "online automaton differs from the class-enumeration oracle"
    return None


def check_matching(pv: PvString, patterns: Iterable[PvString] | None = None) -> str | None:
    """Membership and `locate` agree with the window scan on every pattern,
    asked both as codes and in a raw form, `prev_decode(p)`, which the
    matcher encodes as it walks.

    The patterns default to the empty one and every distinct factor of pv.
    """
    g, _stats = build_online(pv)
    idx = build_occurrence_index(g)
    if patterns is None:
        n = len(pv)
        factors: dict[tuple[int, ...], PvString] = {}
        for i in range(1, n + 1):
            for j in range(i - 1, n + 1):
                win = pv.window(i, j)
                factors.setdefault(win.codes, win)
        patterns = factors.values()
    for p in patterns:
        occ = rpos(pv, p)
        for q in (p, prev_decode(p)):
            if p_match_query(g, q) != bool(occ):
                return f"membership of {str(q)!r} should be {bool(occ)}"
            if locate(idx, q) != occ:
                return f"locate of {str(q)!r} disagrees with the scan"
    return None


def _arrays(g: Pdawg) -> tuple[list, ...]:
    """The arrays that fix a PDAWG and its node numbering; engines that agree
    build equal arrays, not only equal canonical forms."""
    return g.lens, g.slinks, g.static_edges, g.int_edges, g.sink_history


def check_offline(pv: PvString) -> str | None:
    """Building bottom-up from the suffix tree of the reversed text read off
    the online automaton, as `--engine offline` does, gives that automaton,
    node numbering included."""
    g, _stats = build_online(pv)
    if _arrays(offline_build_pdawg(suffix_link_tree_as_pstree(g))) != _arrays(g):
        return "offline build from the reversed-text tree differs from online"
    return None


def check_duality(pv: PvString) -> str | None:
    """The automaton against the oracle tree of the reversed text.

    The four-point correspondence of `verify_duality` holds (so explicit and
    implicit Weiner links are as many as primary and secondary edges), the
    suffix-link tree is the oracle tree, and `check_offline` holds, so all
    three engines agree.
    """
    g, _stats = build_online(pv)
    tree = build_pstree_naive(pv_reverse(pv))
    detail = verify_duality(g, tree)
    if detail is not None:
        return detail
    if not tree_equal(suffix_link_tree_as_pstree(g), tree):
        return "suffix-link tree differs from the oracle tree of the reversed text"
    return check_offline(pv)


def check_rtl(pv: PvString) -> str | None:
    """Every right-to-left step equals the oracle tree of that suffix, and
    the redirections it counts are the ones the oracle trees show: Weiner
    links of both trees, keyed by source string and label, that are explicit
    after the step and lead to a new string; at most one.  The links the
    final tree stores are its Weiner links, computed definitionally."""
    n = len(pv)
    before, old = 0, {}
    for i, tree, stats in rtl_steps(pv):
        oracle = build_pstree_naive(pv.window(n - i + 1, n))
        if not tree_equal(tree, oracle):
            return f"tree after {i} prepended symbols differs from the oracle"
        strs, depth = oracle.node_strings(), oracle.depth
        new, moved = {}, 0
        for v, links in enumerate(weiner_links(oracle)):
            for a, t in links.items():
                key = strs[v], a
                new[key] = strs[t]
                if depth[t] == depth[v] + 1 and key in old and old[key] != strs[t]:
                    moved += 1
        step = stats.redirections - before
        if moved > 1 or step != moved:
            return f"step {i} counted {step} redirections, the oracle trees {moved} (at most 1)"
        before, old = stats.redirections, new
    if tree.uplinks != weiner_links(tree):
        return "stored links are not the Weiner links of the tree"
    return None


def check_bounds(max_k: int, max_n: int) -> str | None:
    """The separation family T_k for 2 <= k <= max_k needs quadratically many
    minimal-automaton states but a linear PDAWG, and for 3 <= n <= max_n
    a·b^(n-1) and a·b^(n-2)·c reach the 2n-1 node and 3n-4 edge ceilings."""
    for k in range(2, max_k + 1):
        t = separation_text(k)
        if build_psauto(t).state_count() < k * (k - 1) // 2:
            return f"minimal DFA for the separation family k={k} is too small"
        g, _stats = build_online(t)
        if g.node_count() > 2 * 4 * k - 1:
            return f"automaton for the separation family k={k} is too large"
    al = Alphabet("abc", "xy")
    for n in range(3, max_n + 1):
        g, _stats = build_online(PString("a" + "b" * (n - 1), al))
        if g.node_count() != 2 * n - 1:
            return f"a·b^{n - 1} misses the node-count ceiling"
        g, _stats = build_online(PString("a" + "b" * (n - 2) + "c", al))
        if g.edge_count() != 3 * n - 4:
            return f"a·b^{n - 2}·c misses the edge-count ceiling"
    return None
