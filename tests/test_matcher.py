"""Existence queries and end-position reporting over the finished index."""

import random

import pytest

from pdawg import (
    Alphabet,
    AlphabetError,
    PString,
    build_occurrence_index,
    build_online,
    locate,
    p_match_query,
)
from pdawg.oracles import rpos
from pdawg.verify import check_matching, separation_text

from helpers import A_XY, AB_XYZ, all_pstrings, random_pstring

XAXAY = PString("xaxay", A_XY)


def _p(raw):
    return PString(raw, A_XY)


def _many_parameters(n):
    rng = random.Random(5)
    params = [f"p{i}" for i in range(30)]
    return PString([rng.choice(params + ["a", "b"]) for _ in range(n)], Alphabet("ab", params))


@pytest.fixture(scope="module")
def indexed():
    g, _ = build_online(XAXAY.prev())
    return g, build_occurrence_index(g)


class TestPMatchQuery:
    def test_static_parameter_static_window(self, indexed):
        g, _ = indexed
        assert p_match_query(g, _p("axa"))  # same shape as "axa"/"aya" windows

    def test_absent_shape(self, indexed):
        g, _ = indexed
        assert not p_match_query(g, _p("yaxa"))

    def test_empty_pattern_always_matches(self, indexed):
        g, _ = indexed
        assert p_match_query(g, _p(""))

    def test_pattern_longer_than_text(self, indexed):
        g, _ = indexed
        assert not p_match_query(g, _p("xaxaya"))

    def test_renamed_parameters_are_irrelevant(self, indexed):
        g, _ = indexed
        assert p_match_query(g, PString("qa", Alphabet("a", "pq")))


class TestLocate:
    def test_two_occurrences_under_renaming(self, indexed):
        _, idx = indexed
        assert locate(idx, _p("ya")) == (2, 4)

    def test_distinct_contexts_split_results(self, indexed):
        _, idx = indexed
        assert locate(idx, _p("xax")) == (3,)
        assert locate(idx, _p("xay")) == (5,)
        assert locate(idx, _p("ax")) == (3, 5)

    def test_empty_pattern_reports_every_boundary(self, indexed):
        _, idx = indexed
        assert locate(idx, _p("")) == (0, 1, 2, 3, 4, 5)

    def test_absent_and_oversized_patterns(self, indexed):
        _, idx = indexed
        assert locate(idx, _p("yaxa")) == ()
        assert locate(idx, _p("xaxaya")) == ()

    def test_single_symbol_text(self):
        g, _ = build_online(_p("x").prev())
        idx = build_occurrence_index(g)
        assert locate(idx, _p("y")) == (1,)

    def test_results_agree_with_the_position_oracle(self, indexed):
        _, idx = indexed
        w = XAXAY.prev()
        for p in (_p("a"), _p("xa"), _p("ax"), _p("xay"), _p("xaxay")):
            assert locate(idx, p) == rpos(w, p.prev())


class TestRawPatterns:
    """A `PString` is prev-encoded as the walk reads it; its answers and its
    errors are those of its codes."""

    def test_raw_and_encoded_patterns_agree(self):
        rng = random.Random(19)
        text_alphabet, renamed = Alphabet("ab", "wxyz"), Alphabet("ab", "pqrs")
        for _ in range(25):
            n = rng.randint(1, 60)
            t = random_pstring(rng, text_alphabet, n)
            g, _ = build_online(t.prev())
            idx = build_occurrence_index(g)
            patterns = []
            for _ in range(20):
                # a window with its parameters renamed (a hit), then a
                # random pattern over the text's alphabet (mostly a miss)
                m = rng.randint(1, n)
                i = rng.randint(0, n - m)
                rename = dict(zip("wxyz", rng.sample("pqrs", 4)))
                patterns.append(PString([rename.get(s, s) for s in t.raw[i : i + m]], renamed))
                patterns.append(random_pstring(rng, text_alphabet, rng.randint(1, n + 2)))
            for p in patterns:
                raw_answers = p_match_query(g, p), locate(idx, p)  # before p.prev() caches
                pv = p.prev()
                assert raw_answers == (p_match_query(g, pv), locate(idx, pv)), (str(t), str(p))

    @pytest.mark.parametrize(
        "raw, position",
        [("aaq", 3), ("aaxqa", 4), ("xq", 2)],
        ids=["after-the-miss", "later-after-the-miss", "before-any-miss"],
    )
    def test_symbol_in_neither_alphabet_raises(self, indexed, raw, position):
        g, idx = indexed
        match = f"'q' at position {position} is in neither alphabet"
        with pytest.raises(AlphabetError, match=match):
            p_match_query(g, _p(raw))
        with pytest.raises(AlphabetError, match=match):
            locate(idx, _p(raw))

    def test_other_static_alphabet_raises(self, indexed):
        g, idx = indexed
        p = PString("xa", Alphabet("ab", "xy"))  # would match, over other statics
        with pytest.raises(AlphabetError, match="different static alphabets"):
            p_match_query(g, p)
        with pytest.raises(AlphabetError, match="different static alphabets"):
            locate(idx, p)

    def test_over_long_pattern_with_unknown_symbol_raises(self, indexed):
        g, idx = indexed
        with pytest.raises(AlphabetError, match="'q' at position 6"):
            p_match_query(g, _p("xaxayq"))
        with pytest.raises(AlphabetError, match="'q' at position 6"):
            locate(idx, _p("xaxayq"))


class TestOccurrenceIndex:
    def test_source_interval_covers_every_position(self, indexed):
        g, idx = indexed
        lo, hi = idx.enter[g.source], idx.leave[g.source]
        assert all(lo <= idx.enter[g.sink_history[i]] < hi for i in range(6))

    def test_reversed_suffix_links_form_a_spanning_tree(self):
        rng = random.Random(3)
        for _ in range(10):
            g, _ = build_online(random_pstring(rng, AB_XYZ, rng.randint(1, 60)).prev())
            seen = set()
            for u in g.node_ids():
                v = u
                while v != g.source and v not in seen:
                    seen.add(v)
                    v = g.slinks[v]
            assert seen == set(g.node_ids()) - {g.source}

    def test_positions_are_the_prefixes_sorted_by_tour_entry(self):
        rng = random.Random(8)
        for _ in range(40):
            g, _ = build_online(random_pstring(rng, AB_XYZ, rng.randint(0, 120)).prev())
            idx = build_occurrence_index(g)
            enter, leave, history = idx.enter, idx.leave, g.sink_history
            positions = sorted(range(len(history)), key=lambda i: (enter[history[i]], i))
            assert idx.positions == positions
            # each prefix sits at the offset where the tour enters its class
            assert [enter[history[i]] for i in positions] == list(range(len(positions)))
            # a node's block holds its own prefix, if any, and its children's blocks
            size = [leave[u] - enter[u] for u in g.node_ids()]
            for u in g.node_ids():
                if u != g.source:
                    size[g.slinks[u]] -= leave[u] - enter[u]
            assert size == [int(history[g.lens[u]] == u) for u in g.node_ids()]

    @pytest.mark.parametrize(
        "text",
        [
            PString("a" + "b" * 79, Alphabet("abc", "xy")),
            PString("a" + "b" * 78 + "c", Alphabet("abc", "xy")),
            separation_text(20),
            _many_parameters(120),
        ],
        ids=["a.b^(n-1)", "a.b^(n-2).c", "T_20", "many-parameters"],
    )
    def test_each_block_holds_exactly_its_subtree_prefixes(self, text):
        g, _ = build_online(text.prev())
        idx = build_occurrence_index(g)
        history = g.sink_history
        assert sorted(idx.positions) == list(range(len(history)))
        below: list[set[int]] = [set() for _ in g.node_ids()]
        for i, u in enumerate(history):
            while u is not None:
                below[u].add(i)
                u = g.slinks[u]
        for u in g.node_ids():
            assert set(idx.positions[idx.enter[u] : idx.leave[u]]) == below[u]
            if history[g.lens[u]] == u:
                assert idx.positions[idx.enter[u]] == g.lens[u]


def test_exhaustive_tiny_corpus_matches_the_scan():
    for t in all_pstrings(A_XY, 4):
        assert check_matching(t.prev()) is None, str(t)


def test_random_texts_and_patterns_match_the_scan():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(1, 80)
        pv = random_pstring(rng, AB_XYZ, n).prev()
        patterns = [
            random_pstring(rng, AB_XYZ, rng.randint(1, min(n + 2, 12))).prev()
            for _ in range(30)
        ]
        assert check_matching(pv, patterns) is None, str(pv)
