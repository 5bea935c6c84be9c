"""In-process A/B of `build_online`, or of `locate`, between two checkouts.

    python tools/ab_build.py PARENT_ROOT CHANGE_ROOT [--n N] [--reps R] [--seed S]
                             [--ops [--record | --check] | --locate]

Loads the `pdawg` package from each root's `src` under a name of its own,
builds the four text families of CHANGE_ROOT's `bench/families.py` (length N,
seeded with S) on both sides, and exits 1 unless the two builds agree on
`lens`, `slinks`, both label-map lists, `sink_history` and the
`ConstructionStats` counters.  Then it times `build_online` on the
prev-encoded text R times per side, interleaved, alternating which side goes
first, and prints per family each side's median µs per symbol, their ratio
(change over parent) and how many of the R pairs the change won.

With --ops it counts instead of timing: the bytecode instructions each side
executes in frames of its own `pdawg` package, through `sys.settrace` opcode
events, per symbol for `build_online` and `build_occurrence_index` and per
pattern for `p_match_query` and `locate` on the PATTERNS patterns of
`families.patterns`.  A count is the same on every run under one interpreter,
unlike a time, but differs between Python versions.  It sees only bytecode,
not the C code a call such as `list.sort` runs.  `--record` appends
CHANGE_ROOT's counts to its `BENCH_ops.json` as an entry naming the commit
(with a `+` when `src` has uncommitted changes), the Python version, N and S.
`--check` exits 1 unless CHANGE_ROOT's counts equal those of the last entry
for the running Python minor version, N and S.

With --locate it times `locate` instead: each side builds its own occurrence
index, then locates the LOCATE_PATTERNS patterns of `families.patterns`, one
pass in the same order, each pattern a fresh `PString` on both sides, timed
in interleaved pairs that alternate which side goes first.  It exits 1 unless
every answer agrees, and prints per family each side's p50 and p99 in µs,
their ratio (change over parent) and, after the pass, what each side's
index keeps: classes/positions/room left, or `-` for an index that keeps
no answers.  A class that the list reaches again is located again, as in a
long-lived process.

Standard library only.  Run a checkout against itself to check the script:
`python tools/ab_build.py . . --n 2000 --reps 3`,
`python tools/ab_build.py . . --n 2000 --ops`, which gives both sides equal
counts, and `python tools/ab_build.py . . --n 2000 --locate`.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import platform
import random
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

COUNTERS = ("redirected_secondary_edges", "suffix_links_deleted", "climb_visits", "redirections")
PATTERNS = 200  # patterns per family whose walks --ops counts
LOCATE_PATTERNS = 20_000  # patterns per family that --locate times, as the bench's pool


def load(name: str, path: Path):
    """Import the module or package at `path` as `name`, dropping any
    submodule left from an earlier load under that name."""
    for key in [k for k in sys.modules if k.startswith(name + ".")]:
        del sys.modules[key]
    if path.is_dir():
        spec = importlib.util.spec_from_file_location(
            name, path / "__init__.py", submodule_search_locations=[str(path)]
        )
    else:
        spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports find it here
    spec.loader.exec_module(module)
    return module


def arrays(g, stats) -> tuple:
    """What a build fixes: its arrays, node numbering included, and counters."""
    return (
        g.lens,
        g.slinks,
        [dict(m) for m in g.static_edges],
        [dict(m) for m in g.int_edges],
        g.sink_history,
        tuple(getattr(stats, f) for f in COUNTERS),
    )


def timed_build(pd, pv) -> float:
    gc.collect()
    t0 = perf_counter()
    pd.build_online(pv)
    return perf_counter() - t0


def count_ops(package: str, fn, *args) -> int:
    """The bytecode instructions `fn(*args)` executes in frames of the
    package imported as `package`; frames of other modules run untraced."""
    count = 0

    def opcodes(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcodes

    def calls(frame, event, arg):
        name = frame.f_globals.get("__name__", "")
        if name != package and not name.startswith(package + "."):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcodes

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def side_ops(pd, pv, windows) -> dict[str, float]:
    """One side's instructions per symbol of the build and the occurrence
    index, and per pattern of `p_match_query` and `locate`; every pattern
    is a fresh `PString`, so no encoding is cached from an earlier walk."""
    package, n, m = pd.__name__, len(pv), len(windows)
    g, _stats = pd.build_online(pv)
    idx = pd.build_occurrence_index(g)

    def walks(query, over) -> int:
        patterns = [pd.PString(w, pv.alphabet) for w, _end in windows]
        return sum(count_ops(package, query, over, p) for p in patterns)

    return {
        "build_online/sym": count_ops(package, pd.build_online, pv) / n,
        "occurrence_index/sym": count_ops(package, pd.build_occurrence_index, g) / n,
        "p_match_query/pattern": walks(pd.p_match_query, g) / m,
        "locate/pattern": walks(pd.locate, idx) / m,
    }


def timed_locates(sides, builds, pvs, windows) -> tuple[int, list[list[float]], list[str]]:
    """Each side's `locate` of every window on its own occurrence index, in
    interleaved pairs: the number of windows whose answers differ, each
    side's times in µs, and what each side's index keeps after the pass."""
    idxs = [pd.build_occurrence_index(g) for pd, (g, _stats) in zip(sides, builds)]
    times: list[list[float]] = [[], []]
    differ = 0
    gc.collect()
    for q, (w, _end) in enumerate(windows):
        # the windows alternate hit and mostly miss, so the side that goes
        # first flips every second window, for hits and misses alike
        order = (0, 1) if q // 2 % 2 == 0 else (1, 0)
        ends = [(), ()]
        for side in order:
            locate, p = sides[side].locate, sides[side].PString(w, pvs[side].alphabet)
            t0 = perf_counter()
            ends[side] = locate(idxs[side], p)
            times[side].append((perf_counter() - t0) * 1e6)
        differ += ends[0] != ends[1]
    return differ, times, [kept(idx) for idx in idxs]


def kept(idx) -> str:
    """What an occurrence index keeps of its answers: classes, positions
    and room left, or `-` for an index that keeps none."""
    located = getattr(idx, "located", None)
    if located is None:
        return "-"
    return f"{len(located)}/{sum(map(len, located.values()))}/{idx.room}"


def commit(root: Path) -> str:
    """The checkout's commit, with a `+` when its `src` has uncommitted
    changes, or `?` outside a git checkout."""
    git = ["git", "-C", str(root)]
    try:
        head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
        if head.returncode:
            return "?"
        status = subprocess.run([*git, "status", "--porcelain", "--", "src"],
                                capture_output=True, text=True)
    except OSError:
        return "?"
    return head.stdout.strip() + ("+" if status.stdout.strip() else "")


def record_ops(path: Path, root: Path, n: int, seed: int,
               counts: dict[str, dict[str, float]]) -> str:
    """Append the counts of the checkout at `root` to the record at `path`;
    returns the commit the entry names."""
    record = json.loads(path.read_text())
    entry = {"commit": commit(root), "python": platform.python_version(),
             "n": n, "seed": seed, "counts": counts}
    record["entries"].append(entry)
    path.write_text(json.dumps(record, indent=1) + "\n")
    return entry["commit"]


def check_ops(path: Path, n: int, seed: int, counts: dict[str, dict[str, float]]) -> bool:
    """True iff `counts` equal those of the last entry of the record at
    `path` for the running Python minor version, n and seed; the counts an
    entry leaves out are not compared.  Prints what differs."""
    minor = sys.version_info[:2]
    entries = [e for e in json.loads(path.read_text())["entries"]
               if tuple(map(int, e["python"].split(".")[:2])) == minor
               and (e["n"], e["seed"]) == (n, seed)]
    if not entries:
        print(f"{path.name}: no entry for Python {minor[0]}.{minor[1]}, n={n}, seed={seed}")
        return False
    last = entries[-1]
    differ = [(family, what, value, counts[family][what])
              for family, recorded in last["counts"].items()
              for what, value in recorded.items() if counts[family][what] != value]
    for family, what, value, now in differ:
        print(f"{family} {what}: {now} here, {value} in {path.name} at {last['commit']}")
    return not differ


def p50_p99(times: list[float]) -> tuple[float, float]:
    cuts = quantiles(times, n=100, method="inclusive")
    return cuts[49], cuts[98]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--n", type=int, default=10_000, help="text length (default 10000)")
    ap.add_argument("--reps", type=int, default=41, help="timed pairs per family (default 41)")
    ap.add_argument("--seed", type=int, default=1, help="family seed (default 1)")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--ops", action="store_true",
                      help="count bytecode instructions instead of timing (ignores --reps)")
    mode.add_argument("--locate", action="store_true",
                      help="time locate instead of the build (ignores --reps)")
    record = ap.add_mutually_exclusive_group()
    record.add_argument("--record", action="store_true",
                        help="with --ops, append the change's counts to its BENCH_ops.json")
    record.add_argument("--check", action="store_true",
                        help="with --ops, exit 1 unless the change's counts equal the last"
                             " BENCH_ops.json entry for this Python minor version")
    args = ap.parse_args(argv)
    if args.n < 1 or args.reps < 1:
        ap.error("--n and --reps must be positive")
    if (args.record or args.check) and not args.ops:
        ap.error("--record and --check need --ops")

    sides = [load(f"pdawg_{tag}", root.resolve() / "src" / "pdawg")
             for tag, root in (("parent", args.parent), ("change", args.change))]
    families = load("ab_families", args.change.resolve() / "bench" / "families.py")

    failed = False
    change_counts: dict[str, dict[str, float]] = {}
    if args.ops:
        print(f"n={args.n} seed={args.seed} patterns={PATTERNS}  (bytecode instructions)")
        print(f"{'family':<10} {'count':<22} {'parent':>9} {'change':>9} {'ratio':>7}")
    elif args.locate:
        print(f"n={args.n} seed={args.seed} patterns={LOCATE_PATTERNS}  (µs per locate)")
        print(f"{'family':<10} {'parent p50':>10} {'change p50':>10}"
              f" {'parent p99':>10} {'change p99':>10} {'ratio p99':>9}"
              f" {'parent kept':>17} {'change kept':>17}")
    else:
        print(f"n={args.n} seed={args.seed} reps={args.reps}  (µs/sym, median)")
        print(f"{'family':<10} {'parent':>8} {'change':>8} {'ratio':>7} {'wins':>7}")
    for family, make in families.FAMILIES.items():
        symbols, sigma = make(random.Random(args.seed), args.n)
        pvs = [pd.PString(symbols, pd.Alphabet.from_text(symbols, sigma)).prev() for pd in sides]
        builds = [pd.build_online(pv) for pd, pv in zip(sides, pvs)]
        if arrays(*builds[0]) != arrays(*builds[1]):
            print(f"{family}: the two builds differ")
            failed = True
            continue
        if args.locate:
            windows = families.patterns(random.Random(args.seed), symbols, LOCATE_PATTERNS)
            differ, times, keeps = timed_locates(sides, builds, pvs, windows)
            if differ:
                print(f"{family}: {differ} of {len(windows)} answers differ")
                failed = True
                continue
            (p50a, p99a), (p50b, p99b) = map(p50_p99, times)
            print(f"{family:<10} {p50a:10.1f} {p50b:10.1f} {p99a:10.1f} {p99b:10.1f}"
                  f" {p99b / p99a:9.3f} {keeps[0]:>17} {keeps[1]:>17}")
            continue
        if args.ops:
            windows = families.patterns(random.Random(args.seed), symbols, PATTERNS)
            counts = [side_ops(pd, pv, windows) for pd, pv in zip(sides, pvs)]
            change_counts[family] = counts[1]
            for what, parent in counts[0].items():
                change = counts[1][what]
                print(f"{family:<10} {what:<22} {parent:9.1f} {change:9.1f}"
                      f" {change / parent:7.3f}")
            continue
        times: list[list[float]] = [[], []]
        wins = 0
        for r in range(args.reps):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            pair = [0.0, 0.0]
            for side in order:
                pair[side] = timed_build(sides[side], pvs[side])
                times[side].append(pair[side])
            wins += pair[1] < pair[0]
        parent, change = (median(t) / len(symbols) * 1e6 for t in times)
        print(f"{family:<10} {parent:8.3f} {change:8.3f} {change / parent:7.3f}"
              f" {wins:>3}/{args.reps:<3}")
    record_path = args.change.resolve() / "BENCH_ops.json"
    if args.check and not failed:
        failed = not check_ops(record_path, args.n, args.seed, change_counts)
    if args.record and not failed:
        at = record_ops(record_path, args.change, args.n, args.seed, change_counts)
        print(f"recorded in {record_path.name} as {at}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
