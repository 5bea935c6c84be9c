"""The self-check's own failure branches: a fault injected into a name that a
`verify` check calls makes the check report it, with its exact message."""

from types import SimpleNamespace

import pytest

import pdawg.verify as verify
from pdawg import PString, build_online

from helpers import A_XY

PV = PString("xaxay", A_XY).prev()


def _invariant_broken(g):
    raise ValueError("injected")


def _reparented(real):
    """The oracle tree with its deepest node hung from the root: its strings
    and Weiner links stay, one tree edge moves."""

    def build(t):
        tree = real(t)
        deepest = max(range(tree.node_count()), key=tree.depth.__getitem__)
        tree.parent[deepest] = tree.root
        return tree

    return build


def _one_more_redirection(real):
    def build(s):
        tree, stats = real(s)
        return tree, stats._replace(redirections=stats.redirections + 1)

    return build


def _no_int_links(real):
    def build(s):
        tree, stats = real(s)
        tree.int_links = [{} for _ in tree.int_links]
        return tree, stats

    return build


def _counting(**counts):
    """A build whose graph reports these counts and the real ones otherwise."""

    def fault(real):
        def build(t):
            g, stats = real(t)
            real_counts = {"node_count": g.node_count, "edge_count": g.edge_count}
            return SimpleNamespace(**{**real_counts, **counts}), stats

        return build

    return fault


def _returning(value):
    return lambda real: lambda *args: value


# (name in `verify`, fault made from the real callee, check run, message)
BRANCHES = {
    "encodings-reversal": (
        "pv_reverse", _returning(None),
        lambda: verify.check_encodings(PV),
        "reversal applied twice is not the identity",
    ),
    "encodings-decode": (
        "prev_decode", _returning(PString("", A_XY)),
        lambda: verify.check_encodings(PV),
        "decode does not invert the encoding",
    ),
    "encodings-whole-text": (
        "re_encode", _returning(None),
        lambda: verify.check_encodings(PV),
        "whole-text re-encoding is not a fixpoint",
    ),
    "encodings-window": (
        "re_encode", lambda real: lambda x: x if len(x) == len(PV) else None,
        lambda: verify.check_encodings(PV),
        "window (1,0) re-encoding is not a fixpoint",
    ),
    "pdawg-invariant": (
        "check_invariants", lambda real: _invariant_broken,
        lambda: verify.check_pdawg(PV),
        "invariant broken: injected",
    ),
    "pdawg-oracle": (
        "build_oracle_pdawg", _returning(SimpleNamespace(canonical_form=dict)),
        lambda: verify.check_pdawg(PV),
        "online automaton differs from the class-enumeration oracle",
    ),
    "matching-membership": (
        "rpos", _returning(()),
        lambda: verify.check_matching(PV),
        "membership of '' should be False",
    ),
    "matching-locate": (
        "locate", _returning(()),
        lambda: verify.check_matching(PV),
        "locate of '' disagrees with the scan",
    ),
    "offline": (
        "offline_build_pdawg", _returning(build_online(PString("x", A_XY))[0]),
        lambda: verify.check_offline(PV),
        "offline build from the reversed-text tree differs from online",
    ),
    "duality-item4": (
        "build_pstree_naive", _reparented,
        lambda: verify.check_duality(PV),
        "duality item4 fails: unmatched suffix link / tree edge: (empty) -> 0a0a2",
    ),
    "duality-tree": (
        "tree_equal", _returning(False),
        lambda: verify.check_duality(PV),
        "suffix-link tree differs from the oracle tree of the reversed text",
    ),
    "rtl-tree": (
        "tree_equal", _returning(False),
        lambda: verify.check_rtl(PV),
        "tree after 0 prepended symbols differs from the oracle",
    ),
    "rtl-redirections": (
        "build_pstree_rtl", _one_more_redirection,
        lambda: verify.check_rtl(PV),
        "step 0 counted 1 redirections, the oracle trees 0 (at most 1)",
    ),
    "rtl-links": (
        "build_pstree_rtl", _no_int_links,
        lambda: verify.check_rtl(PV),
        "stored links are not the Weiner links of the tree",
    ),
    "bounds-separation-dfa": (
        "build_psauto", _returning(SimpleNamespace(state_count=lambda: 0)),
        lambda: verify.check_bounds(max_k=2, max_n=3),
        "minimal DFA for the separation family k=2 is too small",
    ),
    "bounds-separation-pdawg": (
        "build_online", _counting(node_count=lambda: 10**9),
        lambda: verify.check_bounds(max_k=2, max_n=3),
        "automaton for the separation family k=2 is too large",
    ),
    "bounds-nodes": (
        "build_online", _counting(node_count=lambda: 0),
        lambda: verify.check_bounds(max_k=1, max_n=3),
        "a·b^2 misses the node-count ceiling",
    ),
    "bounds-edges": (
        "build_online", _counting(edge_count=lambda: 0),
        lambda: verify.check_bounds(max_k=1, max_n=3),
        "a·b^1·c misses the edge-count ceiling",
    ),
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_an_injected_fault_is_reported(monkeypatch, branch):
    name, fault, check, message = BRANCHES[branch]
    assert check() is None
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    assert check() == message
