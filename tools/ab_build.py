"""In-process A/B of `build_online` between two checkouts.

    python tools/ab_build.py PARENT_ROOT CHANGE_ROOT [--n N] [--reps R] [--seed S] [--ops]

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
unlike a time, but differs between Python versions.

Standard library only.  Run a checkout against itself to check the script:
`python tools/ab_build.py . . --n 2000 --reps 3`, and
`python tools/ab_build.py . . --n 2000 --ops`, which gives both sides equal
counts.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import random
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

COUNTERS = ("redirected_secondary_edges", "suffix_links_deleted", "climb_visits", "redirections")
PATTERNS = 200  # patterns per family whose walks --ops counts


def load(name: str, path: Path):
    """Import the module or package at `path` as `name`."""
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


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--n", type=int, default=10_000, help="text length (default 10000)")
    ap.add_argument("--reps", type=int, default=41, help="timed pairs per family (default 41)")
    ap.add_argument("--seed", type=int, default=1, help="family seed (default 1)")
    ap.add_argument("--ops", action="store_true",
                    help="count bytecode instructions instead of timing (ignores --reps)")
    args = ap.parse_args(argv)
    if args.n < 1 or args.reps < 1:
        ap.error("--n and --reps must be positive")

    sides = [load(f"pdawg_{tag}", root.resolve() / "src" / "pdawg")
             for tag, root in (("parent", args.parent), ("change", args.change))]
    families = load("ab_families", args.change.resolve() / "bench" / "families.py")

    failed = False
    if args.ops:
        print(f"n={args.n} seed={args.seed} patterns={PATTERNS}  (bytecode instructions)")
        print(f"{'family':<10} {'count':<22} {'parent':>9} {'change':>9} {'ratio':>7}")
    else:
        print(f"n={args.n} seed={args.seed} reps={args.reps}  (µs/sym, median)")
        print(f"{'family':<10} {'parent':>8} {'change':>8} {'ratio':>7} {'wins':>7}")
    for family, make in families.FAMILIES.items():
        symbols, sigma = make(random.Random(args.seed), args.n)
        pvs = [pd.PString(symbols, pd.Alphabet.from_text(symbols, sigma)).prev() for pd in sides]
        if arrays(*sides[0].build_online(pvs[0])) != arrays(*sides[1].build_online(pvs[1])):
            print(f"{family}: the two builds differ")
            failed = True
            continue
        if args.ops:
            windows = families.patterns(random.Random(args.seed), symbols, PATTERNS)
            counts = [side_ops(pd, pv, windows) for pd, pv in zip(sides, pvs)]
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
