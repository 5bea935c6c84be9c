"""Work counts, not timings: how many node labels the bundled-0 rule reads,
and how often a query calls it.

`_zero_target` is the only place a transition looks at more than one label,
so counting the labels it is handed, per text or pattern symbol, measures
whether construction and matching stay linear.  It is handed a node's
integer map, which holds no static label.  The separation family T_k puts
k + 1 labels on the source, where a scan would cost Θ(k) per parameter
read there, and the family F_k puts k static labels on a class that symbol
0 visits once per y or w, in the build and in a query.  A query follows
every other code with one edge lookup, so it calls `_zero_target` once per
code 0 and never otherwise, and it prev-encodes a `PString` as it walks,
never through `Alphabet.encode_prev`.  The right-to-left tree stores its
edge labels as spans of the text, so its memory peak stays within a
constant factor of the online build's.
"""

import json
import platform
import random
import shutil
import sys
import tracemalloc
from pathlib import Path

import pytest

import pdawg.matcher as matcher
import pdawg.pdawg as online
from pdawg import (
    Alphabet,
    ConstructionStats,
    PString,
    build_occurrence_index,
    build_online,
    build_pstree_rtl,
    locate,
    p_match_query,
    prev_decode,
    pv_reverse,
    stats_summary,
)
from pdawg.verify import separation_text

from helpers import load_repo_file, random_pstring, static_class_family

LABELS_PER_SYMBOL = 4
PEAK_RATIO = 3
N = 4000


class _CountingLabels:
    """Read-only view of the integer map `_zero_target` is handed that
    counts the labels handed out."""

    __slots__ = ("_labels", "_seen")

    def __init__(self, labels, seen):
        self._labels = labels
        self._seen = seen

    def __iter__(self):
        for b in self._labels:
            self._seen[0] += 1
            yield b

    def __contains__(self, b):
        self._seen[0] += 1
        return b in self._labels

    def get(self, b):
        self._seen[0] += 1
        return self._labels.get(b)

    def __getitem__(self, b):
        # follows a label the scan or a lookup has already counted
        return self._labels[b]


@pytest.fixture()
def labels_read(monkeypatch):
    """A one-element list counting the labels every `_zero_target` call
    reads from the integer map it is handed, from the builder or the
    matcher; the right-to-left engine runs the online step, so this counts
    both engines."""
    seen = [0]
    real = online._zero_target

    def counted(labels, *rest):
        return real(_CountingLabels(labels, seen), *rest)

    monkeypatch.setattr(online, "_zero_target", counted)
    monkeypatch.setattr(matcher, "_zero_target", counted)
    return seen


def _assert_linear(name, labels, symbols):
    per_symbol = labels / symbols
    assert per_symbol <= LABELS_PER_SYMBOL, (
        f"{name}: {labels} labels read for {symbols} symbols"
        f" ({per_symbol:.2f} per symbol)"
    )


BUILD_TEXTS = {
    "separation T_1000": lambda: separation_text(N // 4),
    "extremal a.b^(n-2).c": lambda: PString("a" + "b" * (N - 2) + "c", Alphabet("abc", "xy")),
    "random ab/wxyz": lambda: random_pstring(random.Random(1), Alphabet("ab", "wxyz"), N),
    "F_308": lambda: _f_text(308),
    "parameter runs P_64": lambda: _p_text(64),
    "parameter runs Q_64": lambda: _q_text(64),
}


def _f_text(k):
    first, second, sigma = static_class_family(k)
    return PString(first + second, Alphabet(sigma, "pyw"))


def _p_text(k):
    """P_k: `p1 ... pk p_j #` for each j < k, so n = (k - 1)(k + 2), with k
    parameters; a class of length k - 1 gets k - 1 integer labels."""
    params = [f"p{i}" for i in range(1, k + 1)]
    raw = [s for j in range(1, k) for s in (*params, params[j - 1], "#")]
    return PString(raw, Alphabet("#", params))


def _q_text(k):
    """Q_k: `p1 ... pk p_j ... pk #` for each j < k, so n = (3k² + k) / 2 - 2,
    with k parameters; the suffix run p_j ... pk repeats a suffix of the
    first run."""
    params = [f"p{i}" for i in range(1, k + 1)]
    raw = [s for j in range(1, k) for s in (*params, *params[j - 1 :], "#")]
    return PString(raw, Alphabet("#", params))


@pytest.mark.parametrize("name", BUILD_TEXTS)
def test_online_build_reads_few_labels(labels_read, name):
    pv = BUILD_TEXTS[name]().prev()
    build_online(pv)
    _assert_linear(f"build_online on {name}", labels_read[0], len(pv))


def test_queries_from_the_source_read_few_labels(labels_read):
    pv = separation_text(N // 4).prev()
    g, _ = build_online(pv)
    # every window opening with a parameter reads symbol 0 at the source
    windows = [pv.window(i, i + 7) for i in range(1, len(pv) - 6) if pv.codes[i - 1] >= 0]
    labels_read[0] = 0
    assert all(p_match_query(g, p) for p in windows)
    _assert_linear(
        "p_match_query on the length-8 windows of T_1000",
        labels_read[0],
        8 * len(windows),
    )


def test_a_query_through_a_wide_static_class_reads_few_labels(labels_read):
    # after `c3 c4` the walk stands on the class of `c1 c2 c3 c4`, with its
    # k static labels, and reads symbol 0 there at context 2
    first, _second, sigma = static_class_family(308)
    alphabet = Alphabet(sigma, "pywz")
    g, _ = build_online(PString(first + ["p", "c1", "c2", "c3", "c4", "y", "c1"], alphabet))
    pattern = PString(["c3", "c4", "z"], alphabet)
    labels_read[0] = 0
    # raw symbols encoded during the walk, then the codes
    assert p_match_query(g, pattern)
    assert p_match_query(g, pattern.prev())
    _assert_linear("p_match_query of c3 c4 z on the first half of F_308", labels_read[0], 6)


def test_right_to_left_build_reads_few_labels(labels_read):
    pv = pv_reverse(separation_text(100).prev())
    build_pstree_rtl(pv)
    _assert_linear("build_pstree_rtl on reversed T_100", labels_read[0], len(pv))


def _traced_peak(build, pv):
    tracemalloc.start()
    try:
        build(pv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["separation T_1000", "random ab/wxyz"])
def test_right_to_left_build_peaks_near_the_online_build(name):
    pv = BUILD_TEXTS[name]().prev()
    online_peak = _traced_peak(build_online, pv)
    rtl_peak = _traced_peak(build_pstree_rtl, pv)
    assert rtl_peak <= PEAK_RATIO * online_peak, (
        f"build_pstree_rtl on {name} peaks at {rtl_peak} B,"
        f" {rtl_peak / online_peak:.1f} times build_online's {online_peak} B"
    )


@pytest.fixture()
def trans_calls(monkeypatch):
    """A one-element list counting the `_zero_target` calls the matcher
    makes."""
    calls = [0]
    real = matcher._zero_target

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(matcher, "_zero_target", counted)
    return calls


@pytest.mark.parametrize("name", ["separation T_1000", "extremal a.b^(n-2).c"])
def test_queries_call_trans_once_per_code_0(trans_calls, name):
    pv = BUILD_TEXTS[name]().prev()
    g, _ = build_online(pv)
    idx = build_occurrence_index(g)
    windows = [pv.window(i, i + 7) for i in range(1, len(pv) - 6, 7)]
    zeros = sum(p.codes.count(0) for p in windows)
    # the windows as codes, then as raw symbols encoded during the walk
    for patterns in (windows, [prev_decode(p) for p in windows]):
        trans_calls[0] = 0
        assert all(p_match_query(g, p) for p in patterns)
        assert trans_calls[0] == zeros
        trans_calls[0] = 0
        assert all(locate(idx, p) for p in patterns)
        assert trans_calls[0] == zeros


def test_raw_queries_never_call_encode_prev(monkeypatch):
    t = BUILD_TEXTS["random ab/wxyz"]()
    g, _ = build_online(t.prev())
    idx = build_occurrence_index(g)
    rng = random.Random(2)
    patterns = []  # windows, each followed by a copy with one symbol replaced
    for i in range(0, len(t) - 40, 37):
        w = list(t.raw[i : i + rng.randint(1, 40)])
        patterns.append(PString(w, t.alphabet))
        w[rng.randrange(len(w))] = rng.choice("abwxyz")
        patterns.append(PString(w, t.alphabet))
    calls = [0]
    real = Alphabet.encode_prev

    def counted(self, raw):
        calls[0] += 1
        return real(self, raw)

    monkeypatch.setattr(Alphabet, "encode_prev", counted)
    hits = [p_match_query(g, p) for p in patterns]
    assert [bool(locate(idx, p)) for p in patterns] == hits
    assert 0 < sum(hits) < len(patterns)
    assert calls[0] == 0


# (ConstructionStats counters, nodes, edges, primary edges) of the benchmark
# families at n = 2000, seed 1: any edit to the build's hot loop that moves
# a count fails here
PINNED_COUNTS = {
    "code_text": ((1772, 1350, 4870, 1315), 3351, 4411, 3321),
    "random_text": ((1311, 1105, 5733, 1091), 3106, 4976, 3100),
    "separation_text": ((0, 0, 4498, 0), 2001, 2999, 2000),
    "extremal_text": ((1997, 1997, 5996, 1997), 3998, 5996, 3997),
}


@pytest.mark.parametrize("family", PINNED_COUNTS)
def test_bench_family_counts_are_pinned(bench_families, family):
    symbols, sigma = getattr(bench_families, family)(random.Random(1), 2000)
    g, stats = build_online(PString(symbols, Alphabet.from_text(symbols, sigma)))
    summary = stats_summary(g)
    counters, nodes, edges, primary = PINNED_COUNTS[family]
    assert stats == ConstructionStats(*counters)
    assert (summary["nodes"], summary["edges"], summary["primary"]) == (nodes, edges, primary)


def test_ab_build_compares_every_counter():
    # the A/B tool spells the counters out so that it still loads a parent
    # checkout; a counter it leaves out would escape its agreement check
    ab_build = load_repo_file("ab_build", "tools", "ab_build.py")
    assert ab_build.COUNTERS == ConstructionStats._fields


def test_instruction_counts_repeat_exactly(capsys):
    # the counts are exact, so two runs agree, and a checkout run against
    # itself gives both sides equal counts; the counts themselves are not
    # pinned, since they differ between Python versions
    ab_build = load_repo_file("ab_build", "tools", "ab_build.py")
    root = str(Path(__file__).resolve().parents[1])
    tracer = sys.gettrace()
    outputs = []
    for _ in range(2):
        assert ab_build.main([root, root, "--n", "300", "--ops"]) == 0
        outputs.append(capsys.readouterr().out)
    assert sys.gettrace() is tracer
    assert outputs[0] == outputs[1]
    rows = [line.split() for line in outputs[0].splitlines()[2:]]
    assert len(rows) == 4 * 4
    for _family, _count, parent, change, ratio in rows:
        assert float(parent) > 0 and parent == change and ratio == "1.000"


def test_locate_timings_require_equal_answers(tmp_path, monkeypatch, capsys):
    # the checkout against itself agrees; a copy whose `locate` drops the
    # last end position of every hit does not, and the tool exits 1
    ab_build = load_repo_file("ab_build", "tools", "ab_build.py")
    monkeypatch.setattr(ab_build, "LOCATE_PATTERNS", 200)
    root = Path(__file__).resolve().parents[1]
    assert ab_build.main([str(root), str(root), "--n", "300", "--locate"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["code", "random", "sep", "extremal"]
    for row in rows:
        assert len(row) == 8 and float(row[1]) > 0
        # each side's kept classes/positions/room, the same on both sides
        assert row[6] == row[7] and len(row[6].split("/")) == 3
    assert ab_build.kept(object()) == "-"  # an index of a checkout that keeps none
    broken = tmp_path / "src" / "pdawg"
    shutil.copytree(root / "src" / "pdawg", broken, ignore=shutil.ignore_patterns("__pycache__"))
    with open(broken / "matcher.py", "a") as f:
        f.write("\n_locate = locate\n\n\ndef locate(idx, p):\n    return _locate(idx, p)[:-1]\n")
    assert ab_build.main([str(tmp_path), str(root), "--n", "300", "--locate"]) == 1
    out = capsys.readouterr().out
    for family in ("code", "random", "sep", "extremal"):
        assert f"{family}: " in out and " of 200 answers differ" in out


def test_recorded_instruction_counts_are_checked(tmp_path, capsys):
    # a copy of the checkout with an empty record: --check finds no entry,
    # --record adds one that --check then matches, and an edited count fails
    ab_build = load_repo_file("ab_build", "tools", "ab_build.py")
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "pdawg", tmp_path / "src" / "pdawg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bench").mkdir()
    shutil.copy(root / "bench" / "families.py", tmp_path / "bench")
    record = tmp_path / "BENCH_ops.json"
    record.write_text('{"entries": []}')
    ops = [str(root), str(tmp_path), "--n", "300", "--ops"]
    assert ab_build.main(ops + ["--check"]) == 1
    assert "no entry for Python" in capsys.readouterr().out
    assert ab_build.main(ops + ["--record"]) == 0
    assert ab_build.main(ops + ["--check"]) == 0
    entries = json.loads(record.read_text())["entries"]
    assert len(entries) == 1
    entry = entries[0]
    assert entry["commit"] == "?" and entry["python"] == platform.python_version()
    assert (entry["n"], entry["seed"]) == (300, 1)
    counts = entry["counts"]
    assert list(counts) == ["code", "random", "sep", "extremal"]
    # an entry for another Python version is not compared
    other = {**entry, "python": "2.7.18", "counts": {"sep": {"locate/pattern": 0.0}}}
    record.write_text(json.dumps({"entries": [entry, other]}))
    assert ab_build.check_ops(record, 300, 1, counts)
    capsys.readouterr()
    counts["sep"]["locate/pattern"] += 1
    record.write_text(json.dumps({"entries": [entry]}))
    assert ab_build.main(ops + ["--check"]) == 1
    assert "sep locate/pattern: " in capsys.readouterr().out


@pytest.mark.parametrize("family", PINNED_COUNTS)
def test_label_map_lists_hold_about_one_slot_per_node(bench_families, family):
    # the lists grow with the nodes: no capacity is left from a 2n-1 bound
    symbols, sigma = getattr(bench_families, family)(random.Random(1), 10_000)
    g, _stats = build_online(PString(symbols, Alphabet.from_text(symbols, sigma)))
    budget = 1.2 * sys.getsizeof([None] * g.node_count())
    for maps in (g.static_edges, g.int_edges):
        assert len(maps) == g.node_count()
        assert sys.getsizeof(maps) <= budget
