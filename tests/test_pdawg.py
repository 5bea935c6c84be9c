"""The class-merged index itself: transitions, the left-to-right online
builder, size accounting, and serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdawg import (
    Alphabet,
    Num,
    PString,
    build_online,
    build_oracle_pdawg,
    canonical_form,
    from_json_dict,
    node_longest_codes,
    stats_summary,
    to_json_dict,
    trans,
)
from pdawg import Static
from pdawg.verify import check_pdawg

from helpers import A_XY, AB_XYZ, all_pstrings, distinct_by_prev, random_pstring

XAXAY = PString("xaxay", A_XY)


def _node_of(g):
    return {codes: u for u, codes in enumerate(node_longest_codes(g)) if codes is not None}


class TestTrans:
    def test_zero_label_bundles_resolve_through_the_suffix_link(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        u = node[(0, -1)]  # the class holding both "a" and "0a"
        assert sorted(g.edges[u]) == [0, 2]  # both labels exceed context 1
        assert trans(g, u, 1, Num(0)) == node[(-1, 0)]

    def test_static_labels_ignore_the_context_length(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        for i in (0, 1, 5):
            assert trans(g, g.source, i, Static("a")) == node[(0, -1)]

    def test_zero_from_the_source_follows_the_plain_edge(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        assert trans(g, g.source, 0, Num(0)) == node[(0,)]

    def test_absent_extension_returns_none(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        assert trans(g, node[(-1, 0)], 2, Static("a")) is not None
        assert trans(g, node[(0, -1, 2, -1, 0)], 5, Num(0)) is None

    def test_agrees_with_the_definition_on_every_factor(self):
        pv = PString("xyaxya", AB_XYZ).prev()
        g, _ = build_online(pv)
        oracle = build_oracle_pdawg(pv)
        by_member = {m: c for c in oracle.classes for m in c.members}
        node = _node_of(g)
        n = len(pv)
        for i in range(1, n + 1):
            for j in range(i - 1, n + 1):
                x = pv.window(i, j).codes
                for a in (-2, -1, 0, 1, 2, 3):
                    if a > len(x):
                        continue
                    cls = by_member[x]
                    got = trans(g, node[cls.longest], len(x), _sym(a, pv.alphabet))
                    want = by_member.get(x + (a,))
                    if want is None:
                        assert got is None
                    else:
                        assert got == node[want.longest]


def _sym(code, alphabet):
    return Num(code) if code >= 0 else Static(alphabet.static_symbol(code))


class TestOnlineBuild:
    def test_split_when_the_repeated_suffix_is_not_a_class_maximum(self):
        # extending 0a2a with a fresh parameter: the longest repeated suffix
        # is a0 (length 2), housed in the class whose maximum is 0a2, so the
        # step must split that class and add two nodes in total
        g4, _ = build_online(PString("xaxa", A_XY).prev())
        g5, stats = build_online(XAXAY.prev(), collect_trace=True)
        step = stats.trace[4]
        assert step["i"] == 5
        assert step["symbol"] == 0
        assert step["lrs_len"] == 2
        assert step["split"] is True
        assert g5.node_count() == g4.node_count() + 2

    def test_no_split_while_repeated_suffixes_stay_class_maxima(self):
        _, stats = build_online(PString("xaxa", A_XY).prev(), collect_trace=True)
        assert [t["split"] for t in stats.trace] == [False, False, False, False]
        assert [t["lrs_len"] for t in stats.trace] == [0, 0, 1, 2]

    def test_stepwise_structures_match_the_definition(self):
        pv = PString("xaxaya", A_XY).prev()
        assert str(pv) == "0a2a0a"
        for i in range(len(pv) + 1):
            prefix = pv.window(1, i)
            g, _ = build_online(prefix)
            assert canonical_form(g) == build_oracle_pdawg(prefix).canonical_form()

    def test_prefix_steps_equal_full_builds_of_the_prefixes(self):
        pv = PString("xyzabxyzbay", AB_XYZ).prev()
        g, _ = build_online(pv)
        for i in (0, 3, 7, len(pv)):
            gi, _ = build_online(pv.window(1, i))
            assert gi.text_codes == pv.codes[:i]
            assert canonical_form(gi) == build_oracle_pdawg(pv.window(1, i)).canonical_form()


class TestSizes:
    def test_unary_tail_family_maximizes_nodes(self):
        alpha = Alphabet("abc", "x")
        g, _ = build_online(PString("a" + "b" * 9, alpha).prev())
        assert stats_summary(g)["nodes"] == 19  # 2n-1 at n=10

    def test_distinct_tail_family_maximizes_edges(self):
        alpha = Alphabet("abc", "x")
        g, _ = build_online(PString("a" + "b" * 8 + "c", alpha).prev())
        assert stats_summary(g)["edges"] == 26  # 3n-4 at n=10

    def test_empty_text(self):
        g, _ = build_online(PString("", A_XY).prev())
        s = stats_summary(g)
        assert s["nodes"] == 1
        assert s["edges"] == 0
        assert g.sink == g.source

    def test_primary_and_secondary_edges_partition_the_edge_set(self):
        g, _ = build_online(XAXAY.prev())
        s = stats_summary(g)
        assert (s["primary"], s["secondary"]) == (5, 3)
        assert s["primary"] + s["secondary"] == s["edges"] == 8
        assert s["nodes"] == 7

    def test_bounds_hold_on_random_texts(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(3, 120)
            g, _ = build_online(random_pstring(rng, AB_XYZ, n).prev())
            assert g.node_count() <= 2 * n - 1
            assert g.edge_count() <= 3 * n - 4


class TestStructuralInvariants:
    def test_prefix_classes_are_maximal(self):
        for t in (XAXAY, PString("zzaybxz", AB_XYZ)):
            g, _ = build_online(t.prev())
            for i, u in enumerate(g.sink_history):
                assert g.length_of(u) == i

    def test_suffix_links_shorten_and_chain_to_the_source(self):
        g, _ = build_online(PString("xybazxy", AB_XYZ).prev())
        for u in g.node_ids():
            if u == g.source:
                continue
            assert g.length_of(g.slinks[u]) < g.length_of(u)
            steps = 0
            v = u
            while v != g.source:
                v = g.slinks[v]
                steps += 1
                assert steps <= g.node_count()

    def test_primary_edges_spell_exactly_the_class_maxima(self):
        g, _ = build_online(PString("xaxayb", Alphabet("ab", "xy")).prev())
        names = node_longest_codes(g)
        spelled = {}
        stack = [(g.source, ())]
        while stack:
            u, s = stack.pop()
            spelled[u] = s
            for lbl, tgt in g.edges[u].items():
                if g.is_primary(u, tgt):
                    stack.append((tgt, s + (lbl,)))
        assert spelled == {u: names[u] for u in spelled}
        # every node reachable at all carries one in-coming primary edge
        primary_targets = [
            tgt
            for u in g.node_ids()
            for tgt in g.edges[u].values()
            if g.is_primary(u, tgt)
        ]
        assert len(primary_targets) == len(set(primary_targets))

    def test_work_counters_stay_within_the_chain_bound(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 400)
            t = random_pstring(rng, AB_XYZ, n)
            _, stats = build_online(t.prev())
            assert stats.redirected_secondary_edges <= (len(AB_XYZ.pi) + 1) * n


class TestSerialization:
    def test_round_trip_preserves_the_structure(self):
        pv = PString("xaybxayz", AB_XYZ).prev()
        g, _ = build_online(pv)
        doc = to_json_dict(g)
        assert doc == {"n": 8, "text": list(pv.codes)}
        back = from_json_dict(doc, g.alphabet, doc["text"])
        assert canonical_form(back) == canonical_form(g)
        assert to_json_dict(back) == doc

    def test_malformed_documents_are_rejected(self):
        g, _ = build_online(XAXAY.prev())
        doc = to_json_dict(g)
        text = doc["text"]  # 0a2a0
        broken = [
            (dict(doc, n=4), text),
            (dict(doc, n="5"), text),
            ({}, text),
            (doc, text[:-1]),
            (doc, "0a2a0"),
            (doc, None),
            (doc, [0, -1, 2, -2, 0]),  # a second static in a one-static alphabet
            (doc, [0, -1, 1, -1, 0]),  # points at a static
            (doc, [1, -1, 2, -1, 0]),  # points before the string
            (doc, [0, -1, 2, -1, 4]),  # skips the closer occurrence at 3
        ]
        for bad in ("1", 1.5, None, [1], 2**70):
            broken.append((doc, [bad] + text[1:]))
        for d, codes in broken:
            with pytest.raises(ValueError):
                from_json_dict(d, g.alphabet, codes)


def test_exhaustive_small_texts_match_the_definition():
    for t in distinct_by_prev(all_pstrings(A_XY, 5)):
        assert check_pdawg(t.prev()) is None, str(t)


@given(
    st.lists(st.sampled_from(sorted("ab") + sorted("xyz")), max_size=28).map(
        lambda raw: PString(raw, AB_XYZ)
    )
)
@settings(max_examples=120)
def test_random_texts_match_the_definition(t):
    assert check_pdawg(t.prev()) is None
