"""The class-merged index itself: transitions, the left-to-right online
builder, size accounting, and serialization."""

import ast
import inspect
import random
import re
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdawg
import pdawg.pdawg as online
from pdawg import (
    Alphabet,
    ConstructionStats,
    PString,
    PvString,
    build_online,
    check_invariants,
    from_json_dict,
    stats_summary,
    to_json_dict,
)
from pdawg.matcher import _walk
from pdawg.oracles import build_oracle_pdawg
from pdawg.pdawg import _zero_target
from pdawg.verify import (
    _arrays,
    canonical_form,
    check_pdawg,
    check_rtl,
    node_longest_codes,
    separation_text,
)

from helpers import A_XY, AB_XYZ, all_pstrings, distinct_by_prev, random_pstring

XAXAY = PString("xaxay", A_XY)


def _node_of(g):
    return {codes: u for u, codes in enumerate(node_longest_codes(g))}


def _walk_codes(g, codes):
    """The node the matcher's walk reaches from the source on these codes,
    taken as they are, whether or not they are a valid prev-encoding."""
    return _walk(g, PvString._from_codes(tuple(codes), g.alphabet))


class TestTrans:
    """Transitions as the product takes them: the walk of x·a from the
    source reads a after len(x) symbols, from the class of x."""

    def test_zero_label_bundles_resolve_through_the_suffix_link(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        u = node[(0, -1)]  # the class holding both "a" and "0a"
        assert _walk_codes(g, (-1,)) == u
        assert sorted(g.edges[u]) == [0, 2]  # both labels exceed context 1
        assert _walk_codes(g, (-1, 0)) == node[(-1, 0)]

    def test_zero_from_the_source_follows_the_plain_edge(self):
        g, _ = build_online(XAXAY.prev())
        node = _node_of(g)
        assert _walk_codes(g, (0,)) == node[(0,)]

    def test_absent_extension_returns_none(self):
        g, _ = build_online(XAXAY.prev())
        assert _walk_codes(g, (-1, 0, -1)) is not None
        # "0a0" ends only where the text does, so it is in the sink's class,
        # which has no out-edge, not even a bundled 0
        assert _walk_codes(g, (0, -1, 0)) == g.sink
        assert _walk_codes(g, (0, -1, 0, 0)) is None

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
                    got = _walk_codes(g, x + (a,))
                    want = by_member.get(x + (a,))
                    if want is None:
                        assert got is None
                    else:
                        assert got == node[want.longest]


class TestZeroTarget:
    """The bundled-0 rule on hand-built label maps of a node of length 4:
    labels map to target ids, and `SLINKS` gives each target's suffix link."""

    SLINKS = [None, 0, 1, 1, 2, 3, None]

    def test_full_context_follows_label_0_alone(self):
        assert _zero_target({-1: 1, 0: 2, 3: 3}, 4, 4, self.SLINKS) == 2

    def test_full_context_without_label_0_has_no_target(self):
        assert _zero_target({-1: 1, 3: 3}, 4, 4, self.SLINKS) is None

    def test_no_candidate(self):
        # statics and distances within the context cannot read as 0
        assert _zero_target({-2: 1, 1: 2, 2: 3}, 2, 4, self.SLINKS) is None

    def test_unique_zero_is_followed(self):
        assert _zero_target({-1: 1, 0: 4, 2: 3}, 2, 4, self.SLINKS) == 4

    def test_unique_positive_label_is_followed(self):
        assert _zero_target({-1: 1, 1: 2, 3: 5}, 2, 4, self.SLINKS) == 5

    def test_bundled_candidates_take_the_smallest_positive_targets_link(self):
        # 3 -> 4 is the smallest positive candidate; 4's suffix link is 2
        assert _zero_target({0: 1, 4: 5, 3: 4, 1: 3}, 2, 4, self.SLINKS) == 2
        assert _zero_target({4: 5, -1: 1, 3: 4}, 2, 4, self.SLINKS) == 2

    def test_unset_suffix_link_raises(self):
        with pytest.raises(AssertionError):
            _zero_target({0: 1, 3: 6}, 2, 4, self.SLINKS)


@pytest.fixture()
def lrs_calls(monkeypatch):
    """A one-element list counting the `_lrs_bound` calls of the online
    build: one per step that finds its repeated suffix through a bundled
    0-label."""
    calls = [0]
    real = online._lrs_bound

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(online, "_lrs_bound", counted)
    return calls


def _prefix_steps(pv):
    """(lrs_len, split) of each online step i: the length of the suffix link
    of the sink of prefix i, and whether building prefix i deleted more
    suffix links than building prefix i-1."""
    out = []
    deleted = 0
    for i in range(1, len(pv) + 1):
        g, stats = build_online(pv.window(1, i))
        out.append((g.lens[g.slinks[g.sink]], stats.suffix_links_deleted > deleted))
        deleted = stats.suffix_links_deleted
    return out


class TestOnlineBuild:
    def test_split_when_the_repeated_suffix_is_not_a_class_maximum(self):
        # extending 0a2a with a fresh parameter: the longest repeated suffix
        # is a0 (length 2), housed in the class whose maximum is 0a2, so the
        # step must split that class and add two nodes in total
        g4, _ = build_online(PString("xaxa", A_XY).prev())
        g5, _ = build_online(XAXAY.prev())
        assert g5.text_codes[4] == 0
        assert _prefix_steps(XAXAY.prev())[4] == (2, True)
        assert g5.node_count() == g4.node_count() + 2

    def test_no_split_while_repeated_suffixes_stay_class_maxima(self):
        steps = _prefix_steps(PString("xaxa", A_XY).prev())
        assert [split for _k, split in steps] == [False, False, False, False]
        assert [k for k, _split in steps] == [0, 0, 1, 2]

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

    # the last step finds its longest repeated suffix through a bundled
    # 0-label and splits; the redirection climb then starts one node below
    # the climb's stop, at a node that keeps its edge (waxax) or moves an
    # edge but is shorter than k-1 (wbbxbbx), so that split adds no
    # redirection.  Counts pinned from the build before the climb's first
    # step left its loop.
    @pytest.mark.parametrize(
        "text, alphabet, counters, nodes",
        [
            ("waxax", Alphabet("a", "wx"), (0, 1, 9, 0), 7),
            ("wbbxbbx", Alphabet("ab", "wx"), (2, 2, 14, 1), 10),
        ],
    )
    def test_a_split_after_a_bundled_0_repeated_suffix_is_counted_exactly(
        self, lrs_calls, text, alphabet, counters, nodes
    ):
        pv = PString(text, alphabet).prev()
        build_online(pv.window(1, len(pv) - 1))
        before = lrs_calls[0]
        g, stats = build_online(pv)
        # the last step takes the bundled-0 branch, and splits
        assert lrs_calls[0] - before > before
        assert _prefix_steps(pv)[-1][1]
        assert stats == ConstructionStats(*counters)
        assert g.node_count() == nodes
        assert canonical_form(g) == build_oracle_pdawg(pv).canonical_form()

    def test_every_short_text_with_a_bundled_0_step_matches_the_oracles(self, lrs_calls):
        # every text up to length 8 over a/xyz, one per prev-encoding, whose
        # build has a step that finds its repeated suffix through a bundled
        # 0-label
        bundled = []
        for t in distinct_by_prev(all_pstrings(Alphabet("a", "xyz"), 8)):
            before = lrs_calls[0]
            build_online(pv := t.prev())
            if lrs_calls[0] > before:
                bundled.append(pv)
        # the corpus must keep reaching the branch
        assert len(bundled) >= 1000
        for pv in bundled:
            assert check_pdawg(pv) is None, str(pv)
            assert check_rtl(pv) is None, str(pv)

    def test_every_statement_of_the_build_runs(self, bench_families):
        # no branch of the build is dead: on the benchmark families and
        # xaxay, every statement but a raise runs
        source, first = inspect.getsourcelines(online.build_online)
        func = ast.parse("".join(source)).body[0]
        statements = {
            first - 1 + node.lineno
            for node in ast.walk(func)
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)
        } - {first - 1 + func.lineno, first - 1 + func.body[0].lineno}  # def, docstring
        code = online.build_online.__code__
        ran = set()

        def line(frame, event, _arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line

        texts = [XAXAY]
        for family in ("code_text", "random_text", "separation_text", "extremal_text"):
            symbols, sigma = getattr(bench_families, family)(random.Random(1), 300)
            texts.append(PString(symbols, Alphabet.from_text(symbols, sigma)))
        tracer = sys.gettrace()
        sys.settrace(lambda frame, _event, _arg: line if frame.f_code is code else None)
        try:
            for t in texts:
                build_online(t)
        finally:
            sys.settrace(tracer)
        never = sorted(statements - ran)
        assert not never, [source[n - first].strip() for n in never]

    def test_construction_stats_is_a_plain_record(self):
        fields = ("redirected_secondary_edges", "suffix_links_deleted", "climb_visits", "redirections")
        empty = ConstructionStats()
        assert [getattr(empty, f) for f in fields] == [0, 0, 0, 0]
        assert ConstructionStats() == ConstructionStats()
        assert ConstructionStats(climb_visits=1) != empty
        assert all(f"{f}=" in repr(empty) for f in fields)
        _, stats = build_online(random_pstring(random.Random(4), AB_XYZ, 300))
        counts = {f: getattr(stats, f) for f in fields}
        assert all(counts.values()), counts
        assert stats == ConstructionStats(**counts)
        with pytest.raises(AttributeError):
            stats.climb_visits = 0


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

    @pytest.mark.parametrize("text", [XAXAY, separation_text(50)], ids=["xaxay", "T_50"])
    def test_every_arena_slot_is_a_node(self, text):
        g, _ = build_online(text.prev())
        assert len(g.lens) == len(g.slinks) == len(g.edges) == g.node_count()
        assert len(g.static_edges) == len(g.int_edges) == g.node_count()
        assert sum(map(len, g.edges)) == g.edge_count()
        assert (g.source, g.slinks[g.source], g.lens[g.source]) == (0, None, 0)
        with pytest.raises(AttributeError):
            g.source = 1

    def test_each_label_lives_in_the_map_of_its_kind(self):
        g, _ = build_online(XAXAY.prev())
        assert all(b < 0 for m in g.static_edges for b in m)
        assert all(b >= 0 for m in g.int_edges for b in m)
        # a node with no label of a kind shares one empty map, which is read-only
        u = next(u for u in g.node_ids() if not g.int_edges[u])
        with pytest.raises(TypeError):
            g.int_edges[u][0] = 1
        assert g.edge_count() == 8

    def test_positive_labels_are_at_most_the_distinct_parameters(self):
        # each positive label reaches back to the last occurrence of one
        # distinct parameter of the node's longest string, where that
        # string's re-encoding holds one 0 per distinct parameter
        rng = random.Random(29)
        many = Alphabet("ab", [f"p{i}" for i in range(40)])
        texts = [
            *all_pstrings(A_XY, 7),
            *(separation_text(k) for k in (3, 10, 40)),
            *(random_pstring(rng, many, rng.randint(1, 400)) for _ in range(50)),
        ]
        for t in texts:
            g, _ = build_online(t)
            for u, name in enumerate(node_longest_codes(g)):
                positive = sum(b > 0 for b in g.edges[u])
                assert positive <= name.count(0) <= len(t.alphabet.pi), (str(t), u)

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
                assert g.lens[u] == i

    def test_suffix_links_shorten_and_chain_to_the_source(self):
        g, _ = build_online(PString("xybazxy", AB_XYZ).prev())
        for u in g.node_ids():
            if u == g.source:
                continue
            assert g.lens[g.slinks[u]] < g.lens[u]
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


def _put(maps, u, b, t):
    """Give node u the label b to t in `maps`, its static or its integer map
    list; a node with no label of that kind shares a read-only empty map, so
    the node gets a map of its own."""
    maps[u] = {**maps[u], b: t}


def _insert_chain_node(g):
    """Put a node with a length in between under the first suffix link that
    skips a length: every invariant but the node-count bound still holds."""
    u = next(u for u in g.node_ids() if u and g.lens[u] - g.lens[g.slinks[u]] >= 2)
    g.lens.append(g.lens[g.slinks[u]] + 1)
    g.slinks.append(g.slinks[u])
    g.static_edges.append({})
    g.int_edges.append({})
    g.slinks[u] = g.node_count() - 1


def _add_node_on_no_chain(g):
    g.lens.append(1)
    g.slinks.append(0)
    g.static_edges.append({})
    g.int_edges.append({})


def _point_text_at_a_static(g):
    # position 4 refers back to the a at position 2, along a spine edge
    g.text_codes = (0, -1, 2, 2, 0)
    _put(g.int_edges, 3, 2, 4)


# (text, one edit of its automaton, the message check_invariants raises);
# the xaxay automaton has lens [0, 1, 2, 3, 4, 5, 2], suffix links
# [None, 0, 0, 6, 2, 6, 1] and sink history [0, 1, 2, 3, 4, 5]
BROKEN_INVARIANTS = {
    "source-link": (XAXAY, lambda g: g.slinks.__setitem__(0, 1), "source must be node 0"),
    "source-length": (XAXAY, lambda g: g.lens.__setitem__(0, 1), "source must be node 0"),
    "link-missing": (
        XAXAY, lambda g: g.slinks.__setitem__(3, None), "suffix link of node 3 out of range"
    ),
    "link-out-of-range": (
        XAXAY, lambda g: g.slinks.__setitem__(3, 7), "suffix link of node 3 out of range"
    ),
    "link-not-shorter": (
        XAXAY, lambda g: g.slinks.__setitem__(3, 4), "suffix link of node 3 is not shorter"
    ),
    "integer-label-in-static-map": (
        XAXAY,
        lambda g: _put(g.static_edges, 0, 0, 1),
        "static map of node 0 holds the integer label 0",
    ),
    "static-label-in-integer-map": (
        XAXAY,
        lambda g: _put(g.int_edges, 0, -1, 2),
        "integer map of node 0 holds the static label -1",
    ),
    "edge-out-of-range": (
        XAXAY, lambda g: _put(g.int_edges, 0, 0, 7), "edge target of node 0 out of range"
    ),
    "edge-not-longer": (
        XAXAY, lambda g: _put(g.int_edges, 5, 0, 1), "edge of node 5 does not lead to a longer"
    ),
    "distance-too-long": (
        XAXAY, lambda g: _put(g.int_edges, 1, 2, 2), "label 2 of node 1 is neither a static"
    ),
    "unknown-static": (
        XAXAY, lambda g: _put(g.static_edges, 0, -2, 1), "label -2 of node 0 is neither a static"
    ),
    "history-short": (
        XAXAY, lambda g: g.sink_history.pop(), "sink history length disagrees with the text"
    ),
    "history-out-of-range": (
        XAXAY, lambda g: g.sink_history.__setitem__(2, 7), "sink history entry out of range"
    ),
    "history-length": (
        XAXAY, lambda g: g.sink_history.__setitem__(2, 1), "sink history entry 2 has length 1"
    ),
    "off-chain-node": (
        XAXAY, _add_node_on_no_chain, "some node is on no suffix-link chain of a prefix"
    ),
    "spine": (
        XAXAY, lambda g: _put(g.int_edges, 2, 2, 4), "the primary spine does not spell the text"
    ),
    "node-count": (
        PString("abbbbb", Alphabet("abc", "xy")),
        _insert_chain_node,
        re.escape("12 nodes / 11 edges exceed 2n-1 / 3n-4 at n=6"),
    ),
    "text": (XAXAY, _point_text_at_a_static, "position 4 points at a static symbol"),
}


@pytest.mark.parametrize("case", BROKEN_INVARIANTS)
def test_check_invariants_names_each_broken_invariant(case):
    text, edit, message = BROKEN_INVARIANTS[case]
    g, _ = build_online(text.prev())
    check_invariants(g)
    edit(g)
    with pytest.raises(ValueError, match=message):
        check_invariants(g)


class TestSerialization:
    def test_round_trip_preserves_the_structure(self):
        pv = PString("xaybxayz", AB_XYZ).prev()
        g, _ = build_online(pv)
        doc = to_json_dict(g)
        assert doc == {"n": 8, "text": list(pv.codes)}
        back = from_json_dict(doc, g.alphabet, doc["text"])
        # both come from build_online, so they share one node numbering
        assert _arrays(back) == _arrays(g)
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
        for bad in ("1", 1.5, None, [1], 2**70, True, False):
            broken.append((doc, [bad] + text[1:]))
        # JSON booleans equal 1 and 0 but are not symbol codes
        broken += [(dict(doc, n=True), [0]), (doc, [0, False, 2, -1, 0])]
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


def test_readme_quick_start_prints_its_commented_values(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # each print line is commented with its output, then optional prose
    # after two blanks
    commented = [
        re.split(r"\s{2,}", line.split("# ", 1)[1])[0]
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert commented == ["0a2a0", "7 8", "True", "(3,)"]
    assert printed == commented


def test_export_list_is_exactly_the_public_names():
    public = {
        name
        for name, value in vars(pdawg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(pdawg.__all__) == sorted(public)
    namespace = {}
    exec("from pdawg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pdawg.__all__)
