"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py --workloads code,sep --seeds 1-10
    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each (workload, seed) is one `run.py` child, run one after another.  For
every metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
and compares the spread with the metric's bound in BENCHMARK.json.
`--out` writes the summary, with the Python version and CPU count, as the
recorded baseline that later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary: dict[str, dict] = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seed_range(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: ok", file=sys.stderr, flush=True)
        summary[workload] = {}
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": units[name],
                "values": xs,
            }
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread <= bound else "OVER")
            print(f"{workload:<9} {name:<42} {med:>12.6g} {units[name]:<9}"
                  f" spread {spread:7.2%} {'' if bound is None else f'bound {bound:.2f}'} {flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.out is not None:
        record = {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": args.seeds,
            "trace": args.trace,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
