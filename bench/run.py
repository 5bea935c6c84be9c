"""End-to-end and per-layer benchmark of the pdawg package.

    python3 bench/run.py --workload code --seed 1 --seconds 25 --trace 0

Each workload is one seeded text family (see `families.py`).  A run sets up
five times (generate the text and patterns, write them to files, build the
reference automaton in process) and reports the median as `setup_s`.  It
then repeats rounds of closed-loop operations until `--seconds` have passed:

* four in-process builds (`prev`, `build_online`, `build_occurrence_index`);
* seven batches of patterns, each pattern sent to `p_match_query` and then
  to `locate`;
* `pdawg build` twice, `pdawg query` and `pdawg query --locate` three times
  each, run as `python -m pdawg.cli` children, one at a time;
* `pdawg build --engine offline` and `--engine rtl`, twice each, on a short
  text of the same family.

Shared machines drift in speed by a quarter or more over tens of seconds.
So a fixed stdlib-only probe loop runs between operations, and every timing
is scaled by PROBE_REFERENCE_S over the mean of the probes just before and
after it: times are reported in seconds of a machine on which the probe
takes PROBE_REFERENCE_S.  The probe shares no code with pdawg, so a change to
the package moves the scaled times as much as the raw ones.

Every answer is checked: CLI answers against the in-process ones, hit
patterns against their own end position, membership against `locate`, a
sample against the direct scan, build sizes against 2n-1 nodes and 3n-4
edges, and every engine against the online node and edge counts.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
`end_to_end` list of BENCHMARK.json; with `--trace 1` they are the
`per_layer` list, measured with spans around each call into a layer (the
spans are written to `.bench_work/trace-<workload>-<seed>.jsonl`).
`--workload all --smoke` runs every workload at toy sizes in seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path
from statistics import median

from families import FAMILIES, node_ceiling_text, patterns
from tracing import Tracer, clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SIZES = {
    # text length, engine text length, patterns generated, patterns per
    # round, patterns checked against the direct scan
    "full": {"n": 10_000, "n_engine": 400, "patterns": 20_000, "batch": 200, "scan": 8},
    "smoke": {"n": 300, "n_engine": 40, "patterns": 200, "batch": 10, "scan": 4},
}
SETUP_REPEATS = 5
PROBE_REFERENCE_S = 0.003
SCAN_MAX_LEN = 16
BUILD_LAYERS = ("pstrings.prev", "pdawg.build_online", "matcher.build_occurrence_index")
LAYERS = ("bench", "pstrings", "pdawg", "matcher", "cli", "oracles", "duality", "rtl")


def probe() -> float:
    """Seconds taken by a fixed loop of dict, list and sort work."""
    t0 = clock()
    counts: dict[int, int] = {}
    picked = []
    for i in range(12_000):
        k = (i * 7919) & 4095
        counts[k] = counts.get(k, 0) + 1
        if i & 7 == 0:
            picked.append((k, i))
    picked.sort()
    return clock() - t0


def percentile(xs, q: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


class Inputs:
    """One workload's generated inputs, their files and reference answers."""

    def __init__(self, pd, workload: str, seed: int, size: dict, work: Path):
        rng = random.Random(seed)
        family = FAMILIES[workload]
        self.symbols, self.sigma = family(rng, size["n"])
        self.engine_symbols, engine_sigma = family(rng, size["n_engine"])
        self.patterns = patterns(rng, self.symbols, size["patterns"])
        self.n = len(self.symbols)
        self.text = work / "text.txt"
        self.sigma_file = work / "sigma.txt"
        self.engine_text = work / "engine.txt"
        self.engine_sigma = work / "engine-sigma.txt"
        self.index = work / "index.json"
        self.text.write_text(" ".join(self.symbols) + "\n", "utf-8")
        self.sigma_file.write_text("\n".join(self.sigma) + "\n", "utf-8")
        self.engine_text.write_text(" ".join(self.engine_symbols) + "\n", "utf-8")
        self.engine_sigma.write_text("\n".join(engine_sigma) + "\n", "utf-8")

        self.alphabet = pd.Alphabet.from_text(self.symbols, self.sigma)
        self.text_pv = pd.PString(self.symbols, self.alphabet).prev()
        self.g, _stats = pd.build_online(self.text_pv)
        self.idx = pd.build_occurrence_index(self.g)
        self.engine_alphabet = pd.Alphabet.from_text(self.engine_symbols, engine_sigma)
        eg, _stats = pd.build_online(pd.PString(self.engine_symbols, self.engine_alphabet))
        self.engine_counts = (eg.node_count(), eg.edge_count())


class CliResult:
    __slots__ = ("seconds", "rss_mb", "out", "returncode", "stderr")


class Run:
    def __init__(self, pd, workload: str, seed: int, size: dict, trace: bool, work: Path):
        self.pd = pd
        self.workload = workload
        self.size = size
        self.work = work
        self.tr = Tracer(trace)
        # times[...] are scaled by the machine-speed factor, samples[...] are not
        self.times: dict[str, list[float]] = defaultdict(list)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed_reqs: set[int] = set()
        self.messages: list[str] = []
        self.req = 0
        self.next_pattern = 0
        # queries and locates each walk the patterns, so both see hits and misses
        self.next_cli_pattern = {False: 0, True: 0}
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

        for _ in range(3):  # the first calls run before the interpreter specialises
            self.last_probe = probe()
        for _ in range(SETUP_REPEATS):
            self.inp = None
            gc.collect()
            self.run_op(self.set_up, workload, seed)
        # the reference structures live for the whole run; freezing keeps the
        # collector from walking them during the builds being measured
        gc.collect()
        gc.freeze()
        self.cli("cli.warmup", ["--help"], 0)

    def set_up(self, workload: str, seed: int) -> None:
        t0 = clock()
        self.inp = Inputs(self.pd, workload, seed, self.size, self.work)
        self.times["setup_s"].append(clock() - t0)

    def run_op(self, op, *args) -> None:
        """Run one operation, then scale the times it recorded."""
        marks = {k: len(v) for k, v in self.times.items()}
        first_span = len(self.tr.spans)
        op(*args)
        after = probe()
        factor = 2 * PROBE_REFERENCE_S / (self.last_probe + after)
        self.last_probe = after
        self.samples["slowdown"].append(1 / factor)
        for k, v in self.times.items():
            for i in range(marks.get(k, 0), len(v)):
                v[i] *= factor
        for span in self.tr.spans[first_span:]:
            span.scale = factor

    # -- bookkeeping -------------------------------------------------------

    def new_req(self) -> int:
        self.req += 1
        self.attempted += 1
        return self.req

    def check(self, req: int, ok: bool, message: str) -> None:
        if not ok:
            self.failed_reqs.add(req)
            if len(self.messages) < 20:
                self.messages.append(f"request {req}: {message}")

    def check_sizes(self, req: int, what: str, n: int, nodes: int, edges: int) -> None:
        self.check(req, n < 3 or (nodes <= 2 * n - 1 and edges <= 3 * n - 4),
                   f"{what}: {nodes} nodes / {edges} edges exceed 2n-1 / 3n-4 at n={n}")

    def cli(self, name: str, args: list[str], req: int) -> CliResult:
        res = CliResult()
        with self.tr.span(name, req):
            t0 = clock()
            with open(self.work / "stderr.txt", "w+b") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "pdawg.cli", *args],
                    stdout=subprocess.PIPE,
                    stderr=err,
                    env=self.env,
                )
                try:
                    res.out = proc.stdout.read()
                finally:
                    proc.stdout.close()
                    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
                    # would report the largest child so far
                    _pid, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                res.seconds = clock() - t0
                err.seek(0)
                res.stderr = err.read().decode("utf-8", "replace").strip()
        res.rss_mb = usage.ru_maxrss / 1024
        res.returncode = proc.returncode
        if name != "cli.warmup":
            self.samples["rss_mb"].append(res.rss_mb)
        self.check(req, res.returncode == 0,
                   f"{name} exited {res.returncode}: {res.stderr[-300:]}")
        return res

    # -- operations ----------------------------------------------------------

    def op_build(self) -> None:
        pd, inp, tr = self.pd, self.inp, self.tr
        gc.collect()
        req = self.new_req()
        with tr.span("bench.build", req):
            t0 = clock()
            text = pd.PString(inp.symbols, inp.alphabet)
            with tr.span("pstrings.prev", req):
                pv = text.prev()
            with tr.span("pdawg.build_online", req):
                g, stats = pd.build_online(pv)
            with tr.span("matcher.build_occurrence_index", req):
                idx = pd.build_occurrence_index(g)
            seconds = clock() - t0
            if tr.enabled:
                with tr.span("pdawg.to_json_dict", req):
                    body = pd.to_json_dict(g)
                with tr.span("pdawg.stats_summary", req):
                    pd.stats_summary(g)
                with tr.span("pdawg.from_json_dict", req):
                    pd.from_json_dict(body, inp.alphabet, pv.codes)
        self.times["build_us_per_sym"].append(seconds / inp.n * 1e6)
        nodes, edges = g.node_count(), g.edge_count()
        self.check_sizes(req, "build_online", inp.n, nodes, edges)
        self.check(req, (nodes, edges) == (inp.g.node_count(), inp.g.edge_count()),
                   "rebuild differs from the reference build")
        self.check(req, len(idx.positions) == inp.n + 1, "occurrence index misses positions")
        if self.workload == "extremal":
            self.check(req, edges == 3 * inp.n - 4, f"a·b^(n-2)·c has {edges} edges, not 3n-4")
        if tr.enabled:
            n = inp.n
            self.counts.update({
                "pdawg.nodes_per_sym": nodes / n,
                "pdawg.edges_per_sym": edges / n,
                "pdawg.redirected_per_sym": stats.redirected_secondary_edges / n,
                "pdawg.slinks_deleted_per_sym": stats.suffix_links_deleted / n,
                "pdawg.max_out_degree": max(len(g.edges[u]) for u in g.node_ids()),
            })

    def check_answer(self, pattern, end, hit: bool, ends) -> None:
        qreq = self.new_req()
        self.check(qreq, end is None or hit, f"window ending at {end} reported absent")
        lreq = self.new_req()
        self.check(lreq, bool(ends) == hit, "locate disagrees with membership")
        if end is not None:
            i = bisect_left(ends, end)
            self.check(lreq, i < len(ends) and ends[i] == end,
                       f"locate misses the window's own end {end}")

    def op_queries(self) -> None:
        pd, inp = self.pd, self.inp
        start = self.next_pattern
        batch = inp.patterns[start : start + self.size["batch"]]
        self.next_pattern = (start + len(batch)) % len(inp.patterns)
        g, idx, alphabet = inp.g, inp.idx, inp.alphabet
        p_match_query, locate, PString = pd.p_match_query, pd.locate, pd.PString
        qs, ls = self.times["query_us"], self.times["locate_us"]
        gc.collect()
        for pattern, end in batch:
            t0 = clock()
            hit = p_match_query(g, PString(pattern, alphabet))
            t1 = clock()
            ends = locate(idx, PString(pattern, alphabet))
            t2 = clock()
            qs.append((t1 - t0) * 1e6)
            ls.append((t2 - t1) * 1e6)
            self.check_answer(pattern, end, hit, ends)
        if self.tr.enabled:
            gc.collect()
            self.traced_queries(batch)

    def traced_queries(self, batch) -> None:
        pd, inp, tr = self.pd, self.inp, self.tr
        for pattern, end in batch:
            req = self.req + 1
            with tr.span("bench.query", req):
                p = pd.PString(pattern, inp.alphabet)
                with tr.span("pstrings.pattern_codes", req):
                    pd.pattern_codes(p, inp.alphabet)
                with tr.span("matcher.p_match_query", req):
                    hit = pd.p_match_query(inp.g, p)
            with tr.span("bench.locate", req + 1):
                p = pd.PString(pattern, inp.alphabet)
                with tr.span("pstrings.pattern_codes", req + 1):
                    pd.pattern_codes(p, inp.alphabet)
                with tr.span("matcher.locate", req + 1):
                    ends = pd.locate(inp.idx, p)
            self.samples["hits"].append(float(hit))
            self.samples["positions"].append(len(ends))
            self.check_answer(pattern, end, hit, ends)

    def op_cli_build(self) -> None:
        inp = self.inp
        req = self.new_req()
        res = self.cli("cli.build", [
            "build", str(inp.text), "--tokenize", "--sigma-file", str(inp.sigma_file),
            "--pi-auto", "--out", str(inp.index),
        ], req)
        if res.returncode != 0:
            return
        self.times["cli_build_s"].append(res.seconds)
        self.samples["cli_build_rss"].append(res.rss_mb)
        self.samples["index_bytes_per_sym"].append(inp.index.stat().st_size / inp.n)
        stats = json.loads(res.out)
        want = (inp.n, inp.g.node_count(), inp.g.edge_count())
        got = (stats["n"], stats["nodes"], stats["edges"])
        self.check(req, got == want, f"pdawg build reports {got}, expected {want}")
        self.check_sizes(req, "pdawg build", stats["n"], stats["nodes"], stats["edges"])

    def op_cli_query(self, do_locate: bool) -> None:
        pd, inp = self.pd, self.inp
        k = self.next_cli_pattern[do_locate]
        self.next_cli_pattern[do_locate] = (k + 1) % len(inp.patterns)
        pattern, _end = inp.patterns[k]
        req = self.new_req()
        kind = "locate" if do_locate else "query"
        # "--" keeps a pattern that starts with "-" from being read as an option
        flags = ["--locate"] if do_locate else []
        args = ["query", *flags, "--", str(inp.index), " ".join(pattern)]
        res = self.cli(f"cli.{kind}", args, req)
        if res.returncode != 0:
            return
        self.times[f"cli_{kind}_s"].append(res.seconds)
        self.samples[f"cli_{kind}_rss"].append(res.rss_mb)
        p = pd.PString(pattern, inp.alphabet)
        if do_locate:
            want = list(pd.locate(inp.idx, p))
            got = json.loads(res.out)
        else:
            want = "true" if pd.p_match_query(inp.g, p) else "false"
            got = res.out.decode().strip()
        self.check(req, got == want, f"pdawg query{' --locate' if do_locate else ''} disagrees")

    def op_engine(self, engine: str) -> None:
        inp = self.inp
        req = self.new_req()
        res = self.cli(f"cli.build_{engine}", [
            "build", str(inp.engine_text), "--tokenize", "--sigma-file",
            str(inp.engine_sigma), "--pi-auto", "--engine", engine,
        ], req)
        if res.returncode != 0:
            return
        self.times[f"cli_build_s.{engine}"].append(res.seconds)
        stats = json.loads(res.out)
        got = (stats["nodes"], stats["edges"])
        self.check(req, got == inp.engine_counts,
                   f"--engine {engine} gives {got}, online gives {inp.engine_counts}")

    def op_startup(self) -> None:
        self.cli("cli.startup", ["--help"], self.new_req())

    def op_engine_layers(self) -> None:
        pd, inp, tr = self.pd, self.inp, self.tr
        rev = pd.pv_reverse(pd.PString(inp.engine_symbols, inp.engine_alphabet).prev())
        gc.collect()
        req = self.new_req()
        with tr.span("bench.engines", req):
            with tr.span("oracles.build_pstree_naive", req):
                tree = pd.build_pstree_naive(rev)
            with tr.span("duality.offline_build_pdawg", req):
                g_off = pd.offline_build_pdawg(tree)
            with tr.span("rtl.build_pstree_rtl", req):
                rtree, counters = pd.build_pstree_rtl(rev)
            with tr.span("rtl.upward_links_to_pdawg", req):
                g_rtl = pd.upward_links_to_pdawg(rtree)
        for name, g in (("offline", g_off), ("rtl", g_rtl)):
            got = (g.node_count(), g.edge_count())
            self.check(req, got == inp.engine_counts, f"in-process {name} gives {got}")
        n = len(inp.engine_symbols)
        self.counts.update({
            "oracles.pstree_label_symbols": sum(
                len(label) for kids in tree.children for label, _ in kids.values()),
            "rtl.label_symbols": sum(
                len(label) for kids in rtree.children for label, _ in kids.values()),
            "rtl.climb_visits_per_sym": counters.climb_visits / n,
            "rtl.redirections_per_sym": counters.redirections / n,
        })

    def final_checks(self) -> None:
        pd, inp = self.pd, self.inp
        sample = [p for p in inp.patterns if len(p[0]) <= SCAN_MAX_LEN][: self.size["scan"]]
        for pattern, _end in sample:
            req = self.new_req()
            p = pd.PString(pattern, inp.alphabet)
            got = pd.locate(inp.idx, p)
            self.check(req, got == pd.scan_occurrences(inp.text_pv, p),
                       f"locate of {' '.join(pattern)!r} disagrees with the scan")
        if self.workload == "extremal":
            req = self.new_req()
            raw = node_ceiling_text(inp.n)
            g, _stats = pd.build_online(pd.PString(raw, pd.Alphabet(inp.sigma, ())))
            self.check(req, g.node_count() == 2 * inp.n - 1,
                       f"a·b^(n-1) has {g.node_count()} nodes, not 2n-1")

    # -- measurement loop ------------------------------------------------------

    def measure(self, seconds: float) -> int:
        # query batches are spread over the round, so their samples see the
        # same mix of machine states as the CLI calls
        ops = [
            (self.op_build,), (self.op_queries,), (self.op_cli_build,), (self.op_queries,),
            (self.op_cli_query, False), (self.op_engine, "offline"), (self.op_queries,),
            (self.op_cli_query, True), (self.op_engine, "rtl"),
            (self.op_build,), (self.op_queries,), (self.op_cli_query, False),
            (self.op_build,), (self.op_queries,), (self.op_cli_query, True),
            (self.op_build,), (self.op_queries,), (self.op_cli_build,), (self.op_queries,),
            (self.op_cli_query, False), (self.op_engine, "offline"), (self.op_queries,),
            (self.op_cli_query, True), (self.op_engine, "rtl"),
        ]
        if self.tr.enabled:
            ops += [(self.op_startup,), (self.op_engine_layers,)]
        start = clock()
        rounds = 0
        # whole rounds only, so every operation gets the same number of
        # samples; stop when another round would overrun the budget
        while rounds == 0 or (clock() - start) * (rounds + 1) / rounds <= seconds:
            for op in ops:
                self.run_op(*op)
            rounds += 1
        self.final_checks()
        return rounds

    def end_to_end(self) -> dict[str, float]:
        s = self.times
        return {
            "setup_s": median(s["setup_s"]),
            "peak_rss_mb": max(self.samples["rss_mb"]),
            "cli_build_s": median(s["cli_build_s"]),
            "cli_query_s": median(s["cli_query_s"]),
            "cli_locate_s": median(s["cli_locate_s"]),
            "index_bytes_per_sym": median(self.samples["index_bytes_per_sym"]),
            "query_us_p50": median(s["query_us"]),
            "query_us_p99": percentile(s["query_us"], 99),
            "locate_us_p99": percentile(s["locate_us"], 99),
            "build_us_per_sym": median(s["build_us_per_sym"]),
            "cli_build_s.offline": median(s["cli_build_s.offline"]),
            "cli_build_s.rtl": median(s["cli_build_s.rtl"]),
        }

    def per_layer(self, rounds: int) -> dict[str, float]:
        tr, s = self.tr, self.samples

        def med(name: str) -> float:
            return median(tr.durations(name))

        def us(name: str, q: int) -> float:
            return percentile(tr.durations(name), q) * 1e6

        build_gc = defaultdict(float)
        for span in tr.spans:
            if span.name in BUILD_LAYERS:
                build_gc[span.req] += span.gc_s * span.scale
        library_build = med("pstrings.prev") + med("pdawg.build_online") \
            + med("pdawg.to_json_dict") + med("pdawg.stats_summary")
        cli_build, cli_query, cli_locate = med("cli.build"), med("cli.query"), med("cli.locate")
        untraced = median(self.times["query_us"])
        traced = median(tr.durations("bench.query")) * 1e6
        out = {
            "pstrings.prev_s": med("pstrings.prev"),
            "pstrings.pattern_codes_us": us("pstrings.pattern_codes", 50),
            "pdawg.build_online_s": med("pdawg.build_online"),
            "pdawg.to_json_dict_s": med("pdawg.to_json_dict"),
            "pdawg.stats_summary_s": med("pdawg.stats_summary"),
            "pdawg.from_json_dict_s": med("pdawg.from_json_dict"),
            **{k: v for k, v in self.counts.items() if k.startswith("pdawg.")},
            "matcher.occurrence_index_s": med("matcher.build_occurrence_index"),
            "matcher.p_match_query_us.p50": us("matcher.p_match_query", 50),
            "matcher.p_match_query_us.p99": us("matcher.p_match_query", 99),
            "matcher.locate_us.p50": us("matcher.locate", 50),
            "matcher.locate_us.p99": us("matcher.locate", 99),
            "matcher.locate_positions_per_query.mean": statistics.fmean(s["positions"]),
            "matcher.locate_positions_per_query.max": max(s["positions"]),
            "matcher.hit_ratio": statistics.fmean(s["hits"]),
            "cli.startup_s": med("cli.startup"),
            "cli.build_wall_s": cli_build,
            "cli.query_wall_s": cli_query,
            "cli.locate_wall_s": cli_locate,
            "cli.build_other_s": cli_build - library_build,
            "cli.query_other_s": cli_query - med("pdawg.from_json_dict")
            - med("matcher.p_match_query"),
            "cli.locate_other_s": cli_locate - med("pdawg.from_json_dict")
            - med("matcher.build_occurrence_index") - med("matcher.locate"),
            "cli.build_rss_mb": median(s["cli_build_rss"]),
            "cli.query_rss_mb": median(s["cli_query_rss"]),
            "cli.locate_rss_mb": median(s["cli_locate_rss"]),
            "oracles.build_pstree_naive_s": med("oracles.build_pstree_naive"),
            "oracles.pstree_label_symbols": self.counts["oracles.pstree_label_symbols"],
            "duality.offline_build_pdawg_s": med("duality.offline_build_pdawg"),
            "rtl.build_pstree_rtl_s": med("rtl.build_pstree_rtl"),
            "rtl.upward_links_to_pdawg_s": med("rtl.upward_links_to_pdawg"),
            **{k: v for k, v in self.counts.items() if k.startswith("rtl.")},
            "runtime.gc_s": median(build_gc.values()),
            "trace.overhead_pct": (traced - untraced) / untraced * 100,
            "machine.slowdown": median(s["slowdown"]),
        }
        by_layer = tr.self_seconds_by_layer()
        for layer in LAYERS:
            out[f"self_s.{layer}"] = by_layer.get(layer, 0.0) / rounds
        return out


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def run_workload(pd, spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool, size: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir()
    run = None
    try:
        run = Run(pd, workload, seed, size, trace, work)
        rounds = run.measure(seconds)
        values = run.per_layer(rounds) if trace else run.end_to_end()
        if trace:
            run.tr.write(WORK / f"trace-{workload}-{seed}.jsonl")
    finally:
        if run is not None:
            run.tr.close()
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"bench: no value for declared metrics {missing}")
    print(f"workload={workload} seed={seed} rounds={rounds} n={run.inp.n}"
          f" n_engine={len(run.inp.engine_symbols)} trace={int(trace)}")
    print("  samples: " + ", ".join(f"{k}={len(v)}" for k, v in run.times.items()))
    for m in declared:
        print(f"  {m['name']:<42} {values[m['name']]:>14.6g} {m['unit']}")
    for message in run.messages:
        print(f"bench: FAILED {message}", file=sys.stderr)
    failed = len(run.failed_reqs)
    return {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*FAMILIES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import pdawg as pd
    except ImportError as exc:
        print(f"bench: cannot import pdawg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(pd.__file__).resolve().parent != (SRC / "pdawg").resolve():
        print(f"bench: pdawg was imported from {pd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    spec = load_benchmark()
    size = SIZES["smoke" if args.smoke else "full"]
    workloads = list(FAMILIES) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(pd, spec, workload, args.seed, args.seconds, bool(args.trace), size)
        if args.workload == "all":
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
