"""Existence queries and end-position reporting over the finished index."""

import random
import sys

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
from pdawg import matcher
from pdawg.matcher import KEPT_ANSWER_SLOTS, _descents, _walk
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
            positions = tuple(sorted(range(len(history)), key=lambda i: (enter[history[i]], i)))
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


def _sorted_block(idx, p):
    """The answer `locate` owes `p`, by a fresh sort of its node's block."""
    u = _walk(idx.g, p)
    return () if u is None else tuple(sorted(idx.positions[idx.enter[u] : idx.leave[u]]))


def _slots(idx):
    """The room a fresh index starts with: the pointer slots of its arrays."""
    return len(idx.positions) + len(idx.enter) + len(idx.leave)


def _charged(idx):
    return sum(len(ends) + KEPT_ANSWER_SLOTS for ends in idx.located.values())


def _kept_as_replayed(idx, answers):
    """The cache and room that first-come keeping of `answers`, (node,
    answer) pairs, leaves on a fresh index of `idx`'s automaton."""
    located, room = {}, _slots(idx)
    for u, ends in answers:
        cost = len(ends) + KEPT_ANSWER_SLOTS
        if u not in located and len(ends) > 1 and cost <= room:
            located[u], room = ends, room - cost
    return located, room


def _bench_index(bench_families, family, n=2000):
    symbols, sigma = getattr(bench_families, family)(random.Random(1), n)
    alphabet = Alphabet.from_text(symbols, sigma)
    pv = PString(symbols, alphabet).prev()
    g, _ = build_online(pv)
    return symbols, alphabet, pv, g, build_occurrence_index(g)


BENCH_FAMILIES = ["code_text", "random_text", "separation_text", "extremal_text"]


class TestLocateCache:
    """`locate` keeps each class's sorted answer of two or more ends while
    the kept answers, each charged its length plus `KEPT_ANSWER_SLOTS`, fit
    in the pointer slots of the index's three arrays; a kept answer is the
    one a fresh sort gives."""

    @pytest.mark.parametrize("family", BENCH_FAMILIES)
    def test_cold_and_warm_answers_equal_a_fresh_sort(self, bench_families, family):
        symbols, alphabet, pv, g, idx = _bench_index(bench_families, family)
        windows = bench_families.patterns(random.Random(7), symbols, 600)
        cold = [locate(idx, PString(w, alphabet)) for w, _end in windows]
        kept = dict(idx.located)
        warm = [locate(idx, PString(w, alphabet)) for w, _end in windows]
        assert kept and idx.located == kept  # the warm pass caches nothing new
        nodes = [_walk(g, PString(w, alphabet)) for w, _end in windows]
        assert (kept, idx.room) == _kept_as_replayed(idx, zip(nodes, cold))
        assert _charged(idx) + idx.room == _slots(idx) and idx.room >= 0
        for (w, end), u, c, h in zip(windows, nodes, cold, warm):
            p = PString(w, alphabet)
            assert c == h == _sorted_block(idx, p), w
            assert end is None or end in c, w
            if u in kept:
                assert h is kept[u]
        short = [PString(w, alphabet) for w, _end in windows if len(w) <= 4][:40]
        assert len(short) >= 10
        for p in short:
            assert locate(idx, p) == rpos(pv, p), str(p)

    def test_answers_stay_right_after_the_cache_fills(self):
        t = random_pstring(random.Random(4), AB_XYZ, 40)
        pv = t.prev()
        g, _ = build_online(pv)
        idx = build_occurrence_index(g)
        factors = [PString(t.raw[i:j], AB_XYZ) for i in range(40) for j in range(i + 1, 41)]
        for _ in range(2):  # the second pass finds the cache full
            for p in factors:
                assert locate(idx, p) == _sorted_block(idx, p) == rpos(pv, p), str(p)
                assert _charged(idx) + idx.room == _slots(idx) and idx.room >= 0
        # every answer of two or more ends left on the uncached path costs
        # more than the room left, and some were
        refused = {
            len(ends) + KEPT_ANSWER_SLOTS
            for ends in map(_sorted_block, [idx] * len(factors), factors)
            if len(ends) > 1 and ends not in idx.located.values()
        }
        assert refused and min(refused) > idx.room

    def test_the_empty_pattern_caches_nothing(self, indexed):
        g, _ = indexed
        idx = build_occurrence_index(g)
        for _ in range(2):
            assert locate(idx, _p("")) == (0, 1, 2, 3, 4, 5)
        # 6 positions and 7 nodes' enter and leave offsets
        assert idx.located == {} and idx.room == _slots(idx) == 6 + 2 * 7
        assert locate(idx, _p("ax")) == (3, 5)
        assert idx.located == {_walk(g, _p("ax")): (3, 5)} and idx.room == 20 - 2 - 8

    def test_an_answer_that_fills_the_room_exactly_is_kept(self):
        # on x^10 the class of x^k ends at k..10, and the index holds 11
        # positions and 11 nodes' offsets: a room of 33 slots
        g, _ = build_online(_p("x" * 10).prev())
        idx = build_occurrence_index(g)
        assert idx.room == 33
        assert locate(idx, _p("x" * 10)) == (10,)  # one end: never kept
        assert idx.located == {} and idx.room == 33
        steps = [(1, 15, True), (3, 15, False), (4, 0, True), (9, 0, False)]
        for k, room, kept in steps:  # x^k costs its 11 - k ends and 8 slots
            ends = locate(idx, _p("x" * k))
            assert ends == tuple(range(k, 11)) and idx.room == room, k
            assert (idx.located.get(_walk(g, _p("x" * k))) is ends) == kept, k
        assert sorted(idx.located.values()) == [tuple(range(1, 11)), tuple(range(4, 11))]

    def test_one_end_answers_leave_the_room_to_a_heavy_class(self, bench_families):
        # every window of length 30 of a random text ends once; kept first
        # come, such answers would fill the room before a heavy class came
        symbols, alphabet, _pv, g, idx = _bench_index(bench_families, "random_text")
        for i in range(len(symbols) - 29):
            assert locate(idx, PString(symbols[i : i + 30], alphabet))
        heavy = PString(["w", "x"], alphabet)
        first = locate(idx, heavy)
        assert len(first) > 100 and locate(idx, heavy) is first
        assert all(len(ends) > 1 for ends in idx.located.values())

    @pytest.mark.parametrize("order", ["shortest-first", "shuffled"])
    @pytest.mark.parametrize("family", BENCH_FAMILIES)
    def test_kept_answers_stay_within_the_index_bytes(self, bench_families, family, order):
        # one pattern per node, its longest string, fills the cache as far
        # as it can go; measured in bytes, it stays near the index's size
        symbols, alphabet, _pv, g, idx = _bench_index(bench_families, family)
        nodes = sorted(range(1, len(g.lens)), key=g.lens.__getitem__)
        if order == "shuffled":
            random.Random(3).shuffle(nodes)
        for u in nodes:
            e = min(idx.positions[idx.enter[u] : idx.leave[u]])
            assert e in locate(idx, PString(symbols[e - g.lens[u] : e], alphabet))
        kept = sys.getsizeof(idx.located) + sum(map(sys.getsizeof, idx.located.values()))
        index = sum(map(sys.getsizeof, (idx.positions, idx.enter, idx.leave)))
        assert idx.located and kept <= 1.25 * index, kept / index


def _descents_by_scan(positions):
    """Each index j with `positions[j - 1] > positions[j]`."""
    return [j for j in range(1, len(positions)) if positions[j - 1] > positions[j]]


@pytest.fixture
def sorts(monkeypatch):
    """The length of every sort `pdawg.matcher` makes, logged by a `sorted`
    set on it, so a test that clears the log before a `locate` sees which
    blocks it sorted."""
    log = []

    def logged(items, **kwargs):
        log.append(len(items))
        return sorted(items, **kwargs)

    monkeypatch.setattr(matcher, "sorted", logged, raising=False)
    return log


AB_XY = Alphabet("ab", "xy")


def _in_order_texts(bench_families):
    """The four bench families at n = 2000, then every text up to length 6
    over statics `ab` and parameters `xy`, as (symbols, alphabet)."""
    for family in BENCH_FAMILIES:
        symbols, sigma = getattr(bench_families, family)(random.Random(1), 2000)
        yield symbols, Alphabet.from_text(symbols, sigma)
    for t in all_pstrings(AB_XY, 6):
        yield t.raw, AB_XY


class TestInOrderBlocks:
    """`locate` answers a block with no descent of `positions` inside it by
    its slice, with no sort, by the descents it lists on its first block of
    two or more ends; every other block it sorts."""

    def test_descents_are_a_scan_and_nodes_locate_to_a_fresh_sort(self, bench_families, sorts):
        seen = {"no descent": 0, "descent at the last pair": 0, "descent at leave": 0}
        texts = 0
        for symbols, alphabet in _in_order_texts(bench_families):
            g, _ = build_online(PString(symbols, alphabet).prev())
            idx = build_occurrence_index(g)
            descents = _descents_by_scan(idx.positions)
            assert list(_descents(idx.positions)) == descents, symbols
            texts += 1
            at = set(descents)
            for u in range(1, len(g.lens)):
                a, b = idx.enter[u], idx.leave[u]
                block = idx.positions[a:b]
                fresh = tuple(sorted(block))
                e = block[0]
                sorts.clear()
                ends = locate(idx, PString(symbols[e - g.lens[u] : e], alphabet))
                assert ends == fresh, (symbols, u)
                assert sorts == ([] if block == fresh else [b - a]), (symbols, u)
                if b - a > 1:
                    seen["no descent"] += block == fresh
                    seen["descent at the last pair"] += b - 1 in at
                    seen["descent at leave"] += b in at
            assert idx.descents is None or list(idx.descents) == descents
        assert texts == 4 + sum(4**k for k in range(7))
        assert all(seen.values()), seen

    @pytest.mark.parametrize("n", [3, 40, 2000])
    def test_extremal_classes_end_in_closed_form(self, n, sorts):
        alphabet = Alphabet("abc", "xy")
        for text, last in (("a" + "b" * (n - 2) + "c", n - 1), ("a" + "b" * (n - 1), n)):
            g, _ = build_online(PString(text, alphabet).prev())
            idx = build_occurrence_index(g)
            sorts.clear()
            for m in range(1, last):
                assert locate(idx, PString("b" * m, alphabet)) == tuple(range(m + 1, last + 1))
            # the positions ascend throughout, so no block is sorted
            assert list(_descents(idx.positions)) == [] and sorts == [], text

    def test_build_a_miss_and_a_one_end_answer_leave_descents_unbuilt(self, indexed):
        g, _ = indexed
        idx = build_occurrence_index(g)
        assert idx.descents is None
        assert locate(idx, _p("yaxa")) == ()
        assert locate(idx, _p("xay")) == (5,)
        assert locate(idx, _p("")) == (0, 1, 2, 3, 4, 5)
        assert idx.descents is None
        assert locate(idx, _p("ax")) == (3, 5)
        assert list(idx.descents) == _descents_by_scan(idx.positions)
        assert type(idx.positions) is tuple and len(idx.positions) == 6


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
