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
    build_online,
    check_invariants,
    pv_reverse,
)
from pdawg.oracles import rpos
from pdawg.verify import (
    check_bounds,
    check_duality,
    check_matching,
    check_offline,
    check_pdawg,
    check_rtl,
)

from helpers import A_XY, AB_XYZ, all_pstrings, distinct_by_prev, random_pstring

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


def _failures(check, texts, limit=1):
    """Run a per-text check of pdawg.verify, naming each failing text."""
    failures = []
    for t in texts:
        detail = check(t.prev())
        if detail is not None:
            failures.append(f"{str(t) or '(empty)'}: {detail}")
            if len(failures) >= limit:
                break
    return failures


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
    got = str(PString("xaxay", A_XY).prev())
    if got != "0a2a0":
        failures.append(f"prev(xaxay) = {got}")
    got = str(PString("uvvauvb", Alphabet("ab", "uv")).prev())
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
    failures = _failures(check_pdawg, small_corpus, limit=3)
    # re-verify the prefix-closure argument literally on a sample
    rng = random.Random(2)
    for t in rng.sample(small_corpus, 80):
        pv = t.prev()
        for i in range(len(pv) + 1):
            detail = check_pdawg(pv.window(1, i))
            if detail is not None:
                failures.append(f"prefix {i} of {t}: {detail}")
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

    def check(t, what):
        # the validator checks 2n-1 / 3n-4 for n >= 3
        g, _ = build_online(t.prev())
        try:
            check_invariants(g)
        except ValueError as exc:
            failures.append(f"{what}: {exc}")

    for t in small_corpus:
        check(t, str(t))
    rng = random.Random(3)
    for _ in range(1000):
        n = rng.randint(3, 300)
        check(random_pstring(rng, AB_XYZ, n), f"random n={n}")
    detail = check_bounds(max_k=1, max_n=100)  # the extremal families only
    if detail is not None:
        failures.append(detail)
    _report(
        capsys,
        "criterion 3: size bounds hold and the extremal families reach them",
        time.perf_counter() - t0,
        failures,
    )


def test_04_quadratic_automaton_versus_linear_index(capsys):
    t0 = time.perf_counter()
    failures = []
    detail = check_bounds(max_k=12, max_n=2)  # the separation family only
    if detail is not None:
        failures.append(detail)
    _report(
        capsys,
        "criterion 4: the minimal automaton grows quadratically, the index stays linear",
        time.perf_counter() - t0,
        failures,
    )


def test_05_queries_agree_with_the_direct_scan(capsys, small_corpus, medium_corpus):
    t0 = time.perf_counter()
    failures = _failures(check_matching, small_corpus)
    non_factors = 0

    def check(pv, patterns):
        detail = check_matching(pv, patterns)
        if detail is not None:
            failures.append(f"{pv}: {detail}")

    rng = random.Random(55)
    for t in medium_corpus:
        pv = t.prev()
        n = len(pv)
        if n <= 30:
            windows = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
        else:
            windows = []
            for _ in range(60):
                i = rng.randint(1, n)
                windows.append((i, rng.randint(i, n)))
        extra = [random_pstring(rng, AB_XYZ, rng.randint(1, 12)).prev() for _ in range(5)]
        non_factors += sum(not rpos(pv, p) for p in extra)
        check(pv, [pv.window(i, j) for i, j in windows] + extra)
        if failures:
            break

    # make sure enough verified non-factors went through the full check
    guard = 0
    big = medium_corpus[0].prev()
    patterns = []
    while non_factors < 1000 and guard < 5000 and not failures:
        guard += 1
        p = random_pstring(rng, AB_XYZ, rng.randint(6, 14)).prev()
        non_factors += not rpos(big, p)
        patterns.append(p)
    if patterns:
        check(big, patterns)
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
    failures = _failures(check_duality, [PString("yayaxab", AB_XY), *small_corpus])
    _report(
        capsys,
        "criterion 6: the four-point correspondence holds with matching counts",
        time.perf_counter() - t0,
        failures,
    )


def test_07_offline_construction_matches_online(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = _failures(check_offline, small_corpus, limit=3)
    _report(
        capsys,
        "criterion 7: bottom-up construction from the tree matches online",
        time.perf_counter() - t0,
        failures,
    )


def test_08_right_to_left_construction(capsys, small_corpus):
    t0 = time.perf_counter()
    failures = _failures(check_rtl, small_corpus)
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
