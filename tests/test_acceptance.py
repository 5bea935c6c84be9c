"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance and prints
one [acceptance] PASS/FAIL line on the terminal, bypassing output capture.
The exhaustive corpora are closed under prefixes, and the online builder is a
pure left fold over the encoded symbols, so the state reached after i symbols
of a text equals a full build of its length-i prefix; checking the final
structure of every corpus instance therefore checks every intermediate step
of every instance.  A random sample re-verifies that argument literally.
"""

import random
import time

import pytest

from pdawg import (
    Alphabet,
    PString,
    build_occurrence_index,
    build_online,
    build_oracle_pdawg,
    build_psauto,
    build_pstree_naive,
    canonical_form,
    locate,
    offline_build_pdawg,
    p_match_query,
    prev_encode,
    pv_reverse,
    rtl_steps,
    scan_occurrences,
    stats_summary,
    tree_equal,
    upward_links_to_pdawg,
    verify_duality,
    weiner_links,
)

from helpers import (
    A_XY,
    AB_XYZ,
    all_pstrings,
    distinct_by_prev,
    random_pstring,
    separation_text,
)

AB_XY = Alphabet("ab", "xy")


def _report(capsys, label, elapsed, failures, budget=None):
    ok = not failures and (budget is None or elapsed <= budget)
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s"
    if budget is not None:
        line += f" of {budget:.0f}s"
    line += ")"
    if failures:
        line += f" — first failure: {failures[0]}"
    elif budget is not None and elapsed > budget:
        line += " — over time budget"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def small_corpus():
    """Every p-string up to length 8 over one static + two parameters and up
    to length 6 over two statics + three parameters, one representative per
    distinct prev-encoding.  Closed under prefixes by construction."""
    corpus = distinct_by_prev(all_pstrings(A_XY, 8)) + distinct_by_prev(
        all_pstrings(AB_XYZ, 6)
    )
    assert len(corpus) == 4925 + 3844
    return corpus


@pytest.fixture(scope="module")
def medium_corpus():
    """200 random texts of length 1..500 over two statics + three parameters."""
    rng = random.Random(5)
    corpus = [random_pstring(rng, AB_XYZ, rng.randint(1, 500)) for _ in range(200)]
    assert len(corpus) == 200 and max(len(t) for t in corpus) > 400
    return corpus


def test_01_encoding_ground_truth(capsys):
    t0 = time.perf_counter()
    failures = []
    got = str(prev_encode(PString("xaxay", A_XY)))
    if got != "0a2a0":
        failures.append(f"prev(xaxay) = {got}")
    got = str(prev_encode(PString("uvvauvb", Alphabet("ab", "uv"))))
    if got != "001a43b":
        failures.append(f"prev(uvvauvb) = {got}")
    got = str(pv_reverse(PString("xaxy", A_XY).prev()))
    if got != "00a2":
        failures.append(f"reverse(0a20) = {got}")
    _report(
        capsys,
        "criterion 1: encoding ground truth",
        time.perf_counter() - t0,
        failures,
        budget=1.0,
    )


def test_02_online_builds_match_the_definitional_index(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = []
    for t in small_corpus:
        pv = t.prev()
        g, _ = build_online(pv)
        if canonical_form(g) != build_oracle_pdawg(pv).canonical_form():
            failures.append(str(t) or "(empty)")
            if len(failures) >= 3:
                break
    # re-verify the prefix-closure argument literally on a sample
    rng = random.Random(2)
    for t in rng.sample(small_corpus, 80):
        pv = t.prev()
        for i in range(len(pv) + 1):
            p = pv.window(1, i)
            g, _ = build_online(p)
            if canonical_form(g) != build_oracle_pdawg(p).canonical_form():
                failures.append(f"prefix {i} of {t}")
                break
    _report(
        capsys,
        "criterion 2: online construction is exact on the exhaustive corpora",
        time.perf_counter() - t0,
        failures,
        budget=300.0,
    )


def test_03_size_bounds_and_extremal_families(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = []

    def check_bounds(g, n, what):
        # the bounds presume n >= 3; shorter texts are outside them
        if n >= 3 and (g.node_count() > 2 * n - 1 or g.edge_count() > 3 * n - 4):
            failures.append(
                f"{what}: {g.node_count()} nodes / {g.edge_count()} edges at n={n}"
            )

    for t in small_corpus:
        g, _ = build_online(t.prev())
        check_bounds(g, len(t), str(t))
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(3, 300)
        t = random_pstring(rng, AB_XYZ, n)
        g, _ = build_online(t.prev())
        check_bounds(g, n, f"random n={n}")
    statics = Alphabet("abc", "")
    for n in range(3, 101):
        g, _ = build_online(PString("a" + "b" * (n - 1), statics).prev())
        if g.node_count() != 2 * n - 1:
            failures.append(f"node family misses equality at n={n}")
        g, _ = build_online(PString("a" + "b" * (n - 2) + "c", statics).prev())
        if g.edge_count() != 3 * n - 4:
            failures.append(f"edge family misses equality at n={n}")
    _report(
        capsys,
        "criterion 3: size bounds hold and the extremal families reach them",
        time.perf_counter() - t0,
        failures,
    )


def test_04_quadratic_automaton_versus_linear_index(capsys):
    t0 = time.perf_counter()
    failures = []
    for k in range(2, 13):
        t = separation_text(k)
        states = build_psauto(t).state_count()
        if states < k * (k - 1) // 2:
            failures.append(f"automaton of block size {k} has only {states} states")
        g, _ = build_online(t.prev())
        if g.node_count() > 2 * len(t) - 1:
            failures.append(f"index of block size {k} has {g.node_count()} nodes")
    _report(
        capsys,
        "criterion 4: the minimal automaton grows quadratically, the index stays linear",
        time.perf_counter() - t0,
        failures,
    )


def test_05_queries_agree_with_the_direct_scan(capsys, small_corpus, medium_corpus):
    t0 = time.perf_counter()
    failures = []
    non_factors = 0

    def check(g, idx, pv, p):
        nonlocal non_factors
        occ = scan_occurrences(pv, p) if len(p) <= len(pv) else ()
        if not occ:
            non_factors += 1
        if p_match_query(g, p) != bool(occ):
            failures.append(f"existence of {p} in {pv}")
        if locate(idx, p) != occ:
            failures.append(f"positions of {p} in {pv}")

    for t in small_corpus:
        pv = t.prev()
        g, _ = build_online(pv)
        idx = build_occurrence_index(g)
        n = len(pv)
        seen = set()
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                p = pv.window(i, j)
                if p.codes not in seen:
                    seen.add(p.codes)
                    check(g, idx, pv, p)
        if failures:
            break

    rng = random.Random(55)
    for t in medium_corpus:
        pv = t.prev()
        g, _ = build_online(pv)
        idx = build_occurrence_index(g)
        n = len(pv)
        if n <= 30:
            windows = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        else:
            windows = []
            for _ in range(60):
                i = rng.randint(1, n)
                windows.append((i, rng.randint(i, n)))
        for i, j in windows:
            check(g, idx, pv, pv.window(i, j))
        for _ in range(5):
            check(g, idx, pv, random_pstring(rng, AB_XYZ, rng.randint(1, 12)).prev())
        if failures:
            break

    # make sure enough verified non-factors went through the full check
    guard = 0
    big = medium_corpus[0].prev()
    while non_factors < 1000 and guard < 5000 and not failures:
        guard += 1
        g, _ = build_online(big)
        idx = build_occurrence_index(g)
        check(g, idx, big, random_pstring(rng, AB_XYZ, rng.randint(6, 14)).prev())
    if non_factors < 1000:
        failures.append(f"only {non_factors} non-factor patterns exercised")
    _report(
        capsys,
        "criterion 5: existence and location agree with the window scan",
        time.perf_counter() - t0,
        failures,
        budget=300.0,
    )


def test_06_duality_with_the_reversed_text_tree(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = []

    def check(text, pv):
        g, _ = build_online(pv)
        tree = build_pstree_naive(pv_reverse(pv))
        report = verify_duality(g, tree)
        if not report.all_pass():
            bad = [k for k, item in report.items.items() if not item["pass"]]
            failures.append(f"{text}: {bad[0]} — {report.items[bad[0]]['witness']}")
            return
        explicit = implicit = 0
        links = weiner_links(tree)
        for v in range(tree.node_count()):
            for tgt in links[v].values():
                if tree.depth[tgt] == tree.depth[v] + 1:
                    explicit += 1
                else:
                    implicit += 1
        s = stats_summary(g)
        if (explicit, implicit) != (s["primary"], s["secondary"]):
            failures.append(f"{text}: link counts {explicit}/{implicit}")

    check("yayaxab", PString("yayaxab", AB_XY).prev())
    for t in small_corpus:
        check(str(t) or "(empty)", t.prev())
        if failures:
            break
    _report(
        capsys,
        "criterion 6: the four-point correspondence holds with matching counts",
        time.perf_counter() - t0,
        failures,
    )


def test_07_offline_construction_matches_online(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = []
    for t in small_corpus:
        pv = t.prev()
        tree = build_pstree_naive(pv_reverse(pv))
        g = offline_build_pdawg(tree)
        online, _ = build_online(pv)
        if canonical_form(g) != canonical_form(online):
            failures.append(str(t) or "(empty)")
            if len(failures) >= 3:
                break
    _report(
        capsys,
        "criterion 7: bottom-up construction from the tree matches online",
        time.perf_counter() - t0,
        failures,
    )


def test_08_right_to_left_construction(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = []
    for t in small_corpus:
        pv = t.prev()
        n = len(pv)
        tree = None
        for i, tree, counters in rtl_steps(pv):
            if not tree_equal(tree, build_pstree_naive(pv.window(n - i + 1, n))):
                failures.append(f"step {i} of {t}")
                break
            if counters.per_step_redirections[-1] > 1:
                failures.append(f"{counters.per_step_redirections[-1]} redirections at step {i} of {t}")
                break
        if failures:
            break
        if tree is not None:
            g = upward_links_to_pdawg(tree)
            online, _ = build_online(pv_reverse(pv))
            if canonical_form(g) != canonical_form(online):
                failures.append(f"final links of {t}")
                break
    _report(
        capsys,
        "criterion 8: right-to-left building is stepwise exact with sparse redirections",
        time.perf_counter() - t0,
        failures,
    )


def test_09_work_bounds_and_large_build_speed(capsys, small_corpus, medium_corpus):
    t0 = time.perf_counter()
    failures = []
    for t in list(small_corpus) + list(medium_corpus):
        n = len(t)
        _, stats = build_online(t.prev())
        bound = (len(t.alphabet.pi) + 1) * n
        if stats.redirected_secondary_edges > bound:
            failures.append(
                f"{stats.redirected_secondary_edges} redirected edges on n={n}"
            )
            break
    rng = random.Random(99)
    four = Alphabet("ab", "wxyz")
    raw = [rng.choice(sorted(four.sigma) + sorted(four.pi)) for _ in range(100_000)]
    t1 = time.perf_counter()
    build_online(PString(raw, four).prev())
    dt = time.perf_counter() - t1
    if dt >= 5.0:
        failures.append(f"length-100000 build took {dt:.2f}s")
    _report(
        capsys,
        "criterion 9: redirection totals stay linear and a 100k build is quick",
        time.perf_counter() - t0,
        failures,
    )
