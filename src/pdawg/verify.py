"""Cross-checks of the fast structures against the brute-force oracles.

Each `check_*` function builds what it needs from its input and returns None
when everything agrees, or a one-line description of the first disagreement.
`pdawg selftest` and the acceptance tests run these same checks.  The
comparisons they share live here too: `canonical_form` of an automaton
(keyed by `node_longest_codes`) and `verify_duality`, the four-point
correspondence between an automaton and the suffix tree of its reversed
text, which follows the same contract.

`selftest` is the driver behind `pdawg selftest`: it owns the suite names
(`SUITES`), builds each suite's seeded corpus, runs its check and shrinks a
failing text to a minimal witness.  It yields results and neither prints
nor exits; the command prints them.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterable, Iterator

from .duality import (
    PSTree,
    build_pstree_rtl,
    offline_build_pdawg,
    suffix_link_tree_as_pstree,
)
from .matcher import build_occurrence_index, locate, p_match_query
from .oracles import (
    build_oracle_pdawg,
    build_psauto,
    build_pstree_naive,
    rpos,
    tree_equal,
    weiner_links,
)
from .pdawg import Pdawg, _witness_ends, build_online, check_invariants
from .pstrings import (
    Alphabet,
    PString,
    PvString,
    _pv_reverse_codes,
    _re_encode_codes,
    format_codes,
    prev_decode,
    pv_reverse,
    re_encode,
)


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
                for labels in (g.static_edges[u], g.int_edges[u])
                for lbl, tgt in labels.items()
            )
        )
        sl = g.slinks[u]
        out[name] = (g.lens[u], None if sl is None else names[sl], edges)
    return out


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
    asked in both of the matcher's walks: as a pv-string, walked by its
    codes, and in a raw form, `prev_decode(p)`, a p-string the matcher
    encodes as it walks.

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


def _check_offline_of(g: Pdawg) -> str | None:
    """`check_offline` for an automaton g already built online from its text."""
    if _arrays(offline_build_pdawg(suffix_link_tree_as_pstree(g))) != _arrays(g):
        return "offline build from the reversed-text tree differs from online"
    return None


def check_offline(pv: PvString) -> str | None:
    """Building bottom-up from the suffix tree of the reversed text read off
    the online automaton, as `--engine offline` does, gives that automaton,
    node numbering included."""
    return _check_offline_of(build_online(pv)[0])


def _first_unmatched(a: Counter, b: Counter):
    """The smallest element whose multiplicity differs in a and b, or None."""
    diff = (a - b) + (b - a)
    return min(diff) if diff else None


def _edge_multisets(
    label_maps: tuple[list, list], depth: list[int], names: list[tuple[int, ...]]
) -> dict[bool, Counter]:
    """The edges of these static and integer label-map lists as multisets of
    (source name, label, target name), keyed by whether the edge goes one
    deeper (primary, explicit)."""
    out: dict[bool, Counter] = {True: Counter(), False: Counter()}
    for maps in label_maps:
        for u, labels in enumerate(maps):
            for lbl, tgt in labels.items():
                out[depth[tgt] == depth[u] + 1][names[u], lbl, names[tgt]] += 1
    return out


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
    rev = [_pv_reverse_codes(name) for name in node_longest_codes(g)]
    strs = tree.node_strings()

    def fmt(codes: tuple[int, ...]) -> str:
        return format_codes(codes, tree.alphabet) or "(empty)"

    odd = _first_unmatched(Counter(rev), Counter(strs))
    if odd is not None:
        return f"duality item1 fails: unmatched node string {fmt(odd)}"

    pd_edges = _edge_multisets((g.static_edges, g.int_edges), g.lens, rev)
    tw_links = _edge_multisets(weiner_links(tree), tree.depth, strs)
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
    return _check_offline_of(g)


def check_rtl(pv: PvString) -> str | None:
    """Every right-to-left step, the tree of a suffix, equals the oracle
    tree of that suffix, and the redirections it counts are the ones the
    oracle trees show: Weiner links of both trees, keyed by source string
    and label, that are explicit after the step and lead to a new string;
    at most one.  The links the final tree stores are its Weiner links,
    computed definitionally."""
    n = len(pv)
    before, old = 0, {}
    for i in range(n + 1):
        suffix = pv.window(n - i + 1, n)
        tree, stats = build_pstree_rtl(suffix)
        oracle = build_pstree_naive(suffix)
        if not tree_equal(tree, oracle):
            return f"tree after {i} prepended symbols differs from the oracle"
        strs, depth = oracle.node_strings(), oracle.depth
        new, moved = {}, 0
        for links in weiner_links(oracle):
            for v, labels in enumerate(links):
                for a, t in labels.items():
                    key = strs[v], a
                    new[key] = strs[t]
                    if depth[t] == depth[v] + 1 and key in old and old[key] != strs[t]:
                        moved += 1
        step = stats.redirections - before
        if moved > 1 or step != moved:
            return f"step {i} counted {step} redirections, the oracle trees {moved} (at most 1)"
        before, old = stats.redirections, new
    if (tree.static_links, tree.int_links) != weiner_links(tree):
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


SUITES = ("encodings", "pdawg", "matching", "duality", "rtl", "bounds")


def _minimize(raw: str, still_fails) -> str:
    """Delete the first symbol whose deletion keeps the predicate failing,
    and start over, until no deletion does."""
    i = 0
    while i < len(raw):
        cand = raw[:i] + raw[i + 1 :]
        if cand and still_fails(cand):
            raw, i = cand, 0
        else:
            i += 1
    return raw


def _random_texts(rng: random.Random, count: int, max_len: int) -> Iterator[str]:
    for _ in range(count):
        yield "".join(rng.choice("abxyz") for _ in range(rng.randint(1, max_len)))


def _prev(raw: str) -> PvString:
    """raw prev-encoded, with a and b static and every other symbol a parameter."""
    return PString(raw, Alphabet.from_text(raw, "ab")).prev()


def selftest(
    names: list[str] | None, max_len: int, seed: int
) -> Iterator[tuple[str, int | None, dict | None]]:
    """Run the named suites (None: all of `SUITES`) in order, yielding
    (name, texts checked or None, failure or None) for each, and stop after
    the first failure: a dict of the suite, the minimized witness text and
    its detail.  An empty or unknown selection, or a `max_len` below 1,
    raises ValueError here, before any suite runs.

    A per-text suite runs `check_<name>`, looked up when the suite runs, on
    every text over a/xy up to the exhaustive length, then on 40 random
    texts over ab/xyz; `matching` also asks 20 random patterns of each text
    whose factors all matched.  `bounds` checks the size bounds once and
    counts no texts.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, not {max_len}")
    chosen = SUITES if names is None else names
    if not chosen:
        raise ValueError("no suite selected")
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    return _run_suites(chosen, max_len, random.Random(seed))


def _run_suites(names: list[str], max_len: int, rng: random.Random):
    def check_matching_sampled(pv: PvString) -> str | None:
        # the patterns are drawn only once every factor has matched
        patterns = _random_texts(rng, 20, len(pv) + 2)
        return check_matching(pv) or check_matching(pv, [_prev(r) for r in patterns])

    for name in names:
        count, witness = None, None
        if name == "bounds":
            detail = check_bounds(max_k=6, max_n=max(12, 4 * max_len))
        else:
            check = check_matching_sampled if name == "matching" else globals()[f"check_{name}"]
            exhaustive_len = max_len if name in ("encodings", "pdawg") else min(max_len, 5)
            lengths = range(1, exhaustive_len + 1)
            texts = ["".join(t) for ln in lengths for t in itertools.product("axy", repeat=ln)]
            texts += _random_texts(rng, 40, 3 * max_len)
            for count, raw in enumerate(texts, 1):
                detail = check(_prev(raw))
                if detail is not None:
                    witness = _minimize(raw, lambda r: check(_prev(r)) is not None)
                    detail = check(_prev(witness)) or detail
                    break
        failure = None if detail is None else {"suite": name, "witness": witness, "detail": detail}
        yield name, count, failure
        if failure is not None:
            return
