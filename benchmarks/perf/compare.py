"""A/B comparison of two source trees with this checkout's benchmark.

Usage, from the repository root::

    python3 benchmarks/perf/compare.py --base ../parent --head . \\
        [--workload W]... [--pairs 10] [--seed 1]

``--base`` and ``--head`` are checkouts; each side's ``src/`` is
measured by *this* checkout's ``run.py``, so both sides run identical
benchmark code and settings.  Each pair makes one untraced single-run
invocation per side and workload, alternating which side goes first.
For every workload and end-to-end metric it prints both sides' median
and quartiles, the head's win count, and a verdict:

* ``improved`` -- the head wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the base's IQR;
* ``unresolved`` -- the run-to-run spread is wider than the metric's
  bound, and the head does not read better on every run;
* ``worse`` -- the head's median is worse than the base's by more than
  the bound;
* ``no worse`` -- otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import defs
from run import WORK_ROOT

RUN = Path(__file__).resolve().parent / "run.py"


def verdict(base, head, better: str, bound: float) -> tuple:
    """``(verdict, head wins)`` for paired samples of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    b, h = defs.summarize(base), defs.summarize(head)
    worse_by = sign * (h["median"] - b["median"])
    base_iqr = b["q3"] - b["q1"]
    if wins >= 0.9 * len(base) and -worse_by > base_iqr:
        return "improved", wins
    scale = abs(b["median"])

    def share(x: float) -> float:
        if scale:
            return x / scale
        return math.inf if x > 0 else 0.0

    spread = max(base_iqr, h["q3"] - h["q1"])
    all_better = all(sign * (hv - bv) < 0 for hv in head for bv in base)
    if share(spread) > bound and not all_better:
        return "unresolved", wins
    if share(worse_by) > bound:
        return "worse", wins
    return "no worse", wins


def run_side(root: Path, workload: str, seed: int, out: Path) -> dict:
    """One untraced single-run invocation; that workload's results."""
    cmd = [sys.executable, str(RUN), "--src", str(root / "src"),
           "--workload", workload, "--runs", "1", "--trace", "0",
           "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"compare.py: {root} {workload}: run.py exited "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    doc = json.loads((out / "results.json").read_text())
    return doc["workloads"][workload]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    parser.add_argument("--workload", action="append",
                        choices=defs.WORKLOAD_NAMES)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "head": args.head.resolve()}
    for name, root in sides.items():
        if not (root / "src" / "repro").is_dir():
            parser.error(f"--{name} {root}: no src/repro there")
    workloads = list(dict.fromkeys(args.workload or defs.WORKLOAD_NAMES))

    # samples[workload][metric][side] -> one median per pair
    samples = {w: {} for w in workloads}
    failures = []
    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="compare-",
                                     dir=WORK_ROOT) as tmp:
        for p in range(args.pairs):
            order = ("base", "head") if p % 2 == 0 else ("head", "base")
            for w in workloads:
                for side in order:
                    out = Path(tmp) / f"{side}-{w}-{p}"
                    result = run_side(sides[side], w, args.seed + p, out)
                    failures.extend(f"{side}: {f}"
                                    for f in result["failures"])
                    for metric, s in result["end_to_end"].items():
                        samples[w].setdefault(metric, {"base": [],
                                                       "head": []})
                        samples[w][metric][side].append(s["median"])
            print(f"pair {p + 1}/{args.pairs} done", file=sys.stderr)

    print(f"{'workload':<16s} {'metric':<17s} {'base median [q1,q3]':>30s} "
          f"{'head median [q1,q3]':>30s} {'wins':>6s}  verdict")
    for w in workloads:
        for m in defs.ALL_END_TO_END:
            if m.name not in samples[w]:
                continue
            base, head = samples[w][m.name]["base"], samples[w][m.name]["head"]
            outcome, wins = verdict(base, head, m.better, m.bound)
            cols = []
            for values in (base, head):
                s = defs.summarize(values)
                cols.append(f"{s['median']:.4g} [{s['q1']:.4g},"
                            f"{s['q3']:.4g}]")
            print(f"{w:<16s} {m.name:<17s} {cols[0]:>30s} {cols[1]:>30s} "
                  f"{wins:>3d}/{len(base):<2d}  {outcome}  ({m.unit}, "
                  f"{m.better} is better, bound {m.bound:.0%})")
    for failure in failures:
        print(f"FAILED {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
