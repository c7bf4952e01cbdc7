"""Benchmark of record: host time, memory and paper fidelity, end to end
and per layer, over four workloads (see README.md).

Usage, from the repository root::

    python3 benchmarks/perf/run.py                      # every workload
    python3 benchmarks/perf/run.py --workload sweep-dense --runs 5
    python3 benchmarks/perf/run.py --workload report-cold \\
        --seed 3 --seconds 25 --trace 0                  # one timed run
    python3 benchmarks/perf/run.py --smoke               # seconds-long

Every measured iteration is a fresh child process (``child.py``); only
one child runs at a time and the runner rotates through the workloads
between repetitions.  ``--runs N`` runs each workload N times
(report-warm 3N: its runs are short and noisy); ``--seconds S`` instead
runs as many iterations of each workload as fit in S seconds (at least
one).
By default one extra traced iteration per workload follows and the
per-layer table is printed; ``--trace 0`` skips it and ``--trace 1``
pairs every untraced iteration with a traced one.

Host times are reported in reference-host seconds: each child samples
how fast the host ran it (``child.HostSpeed``) and its times are scaled
by that speed, so a host that slows down for a while does not move them.

Work directories and the results JSON go under ``.bench_perf/`` in the
checkout (the results path is printed); the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or the per-layer metrics with
``--trace 1``).  A missing source tree exits 2 before any output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import defs
from tracer import SPANS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
WORK_ROOT = REPO / ".bench_perf"
CHILD = HERE / "child.py"

#: per child process; a whole timed run must finish within 180 s
CHILD_TIMEOUT_S = 150.0
#: report-warm runs this many times more often than the others
WARM_RUN_FACTOR = 3


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def child_env(src: Path) -> dict:
    """The child's environment: this source tree only, single-threaded
    numerics, a fixed hash seed, and no ``REPRO_*`` overrides."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def source_digest(src: Path) -> str:
    """Digest of the package sources: names the primed report cache, so
    a cache is only ever reused by the code that wrote it."""
    h = hashlib.sha256()
    root = src / "repro"
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Session:
    """One invocation's children, work directories and primed cache."""

    def __init__(self, src: Path, seed: int, smoke: bool) -> None:
        self.src = src
        self.seed = seed
        self.smoke = smoke
        self.env = child_env(src)
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=WORK_ROOT))
        self._n = 0
        self._warm: Path | None = None
        self.primed: dict = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.work / f"it{self._n:03d}"
        path.mkdir()
        return path

    def spawn(self, workload: str, cwd: Path, *, iteration: int = 0,
              trace: int = 0, verify: bool = False) -> dict:
        """Run one child to completion; its record, plus the wall time
        measured from spawn to exit as ``wall_s``."""
        out = cwd / f"record-{self._n}-{iteration}-{trace}.json"
        cmd = [sys.executable, str(CHILD), "--workload", workload,
               "--seed", str(self.seed), "--iteration", str(iteration),
               "--trace", str(trace), "--out", str(out)]
        if self.smoke:
            cmd.append("--smoke")
        if verify:
            cmd.append("--verify")
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: child exceeded "
                             f"{CHILD_TIMEOUT_S:.0f}s") from None
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not out.exists():
            tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
            raise BenchError(f"{workload}: child exited {proc.returncode}"
                             f"\n{tail}")
        record = json.loads(out.read_text())
        out.unlink()
        record["wall_s"] = wall
        return record

    def warm_dir(self) -> Path:
        """The populated report cache report-warm reads.

        Kept across invocations under ``.bench_perf/`` and named by the
        source digest: priming costs one cold report, which would
        otherwise dominate every report-warm run.  It is filled in a
        temporary directory and renamed into place only when complete.
        """
        if self._warm is not None:
            return self._warm
        tag = source_digest(self.src) + ("-smoke" if self.smoke else "")
        final = WORK_ROOT / f"warm-{tag}"
        if not (final / "primed.json").exists():
            tmp = Path(tempfile.mkdtemp(prefix="priming-", dir=WORK_ROOT))
            record = self.spawn("report-cold", tmp)
            if record["failures"]:
                shutil.rmtree(tmp, ignore_errors=True)
                raise BenchError("priming the report cache failed: "
                                 + "; ".join(record["failures"]))
            (tmp / "primed.json").write_text(json.dumps(
                {"stdout_sha256": record["stdout_sha256"]}))
            os.replace(tmp, final)
        self.primed = json.loads((final / "primed.json").read_text())
        self._warm = final
        return final

    def iteration(self, w: defs.Workload, index: int, trace: int) -> dict:
        cwd = self.warm_dir() if w.warm else self.fresh_dir()
        record = self.spawn(w.name, cwd, iteration=index, trace=trace)
        record.update(cwd=str(cwd), index=index)
        return record

    def verify(self, w: defs.Workload, last: dict) -> dict:
        """Re-render a report workload from the cache its last iteration
        used, and compute its paper fidelity."""
        return self.spawn(w.name, Path(last["cwd"]), verify=True)


# -- one workload's measurements ----------------------------------------------


class WorkloadRun:
    """Every record of one workload in this invocation, and what they
    show once :meth:`finish` has checked and summarized them."""

    def __init__(self, w: defs.Workload) -> None:
        self.w = w
        self.untraced: list = []
        self.traced: list = []
        self.verified: dict | None = None
        self.failures: list = []
        self.attempted = 0
        self.failed = 0
        #: metric -> summary, unit and values (metrics defined here only)
        self.end_to_end: dict = {}
        #: per-layer metric -> median over the traced records
        self.per_layer: dict = {}
        self.absent: list = []
        #: the untraced iterations' host speed and unscaled wall time
        self.host: dict = {}

    @property
    def spent_s(self) -> float:
        return sum(r["wall_s"] for r in self.untraced + self.traced)

    def finish(self, primed: dict) -> None:
        self._check(primed)
        paper = self._paper_err_pct()
        untraced = self.untraced
        values = {
            "wall_s": [ref_s(r, "wall_s") for r in untraced],
            "setup_s": [ref_s(r, "setup_s") for r in untraced],
            "peak_rss_mb": [r["rss_mb"] for r in untraced],
            "paper_err_pct": paper,
            "sim_kinstr_per_s": [r["sim_instructions"] / ref_s(r, "sim_s")
                                 / 1e3 for r in untraced if r["sim_s"] > 0],
            "failed_frac": [self.failed / max(self.attempted, 1)],
        }
        for m in defs.ALL_END_TO_END:
            if values[m.name]:
                self.end_to_end[m.name] = dict(
                    defs.summarize(values[m.name]), unit=m.unit,
                    values=values[m.name])
        self.host = {
            "speed": defs.summarize([r["speed"] for r in untraced]),
            "raw_wall_s": defs.summarize([r["wall_s"] for r in untraced])}
        if self.traced:
            rows = [layer_values(r) for r in self.traced]
            self.per_layer = {
                name: defs.summarize([row[name] for row in rows])["median"]
                for name in rows[0]}
            self.per_layer["trace.overhead_pct"] = 100.0 * (
                self._median_wall(self.traced)
                / self._median_wall(self.untraced) - 1.0)
            self.absent = sorted({a for r in self.traced
                                  for a in r["absent"]})

    @staticmethod
    def _median_wall(records) -> float:
        return defs.summarize([ref_s(r, "wall_s") for r in records])["median"]

    def _check(self, primed: dict) -> None:
        """Apply every check and count failed cells.

        A child reports its own failed cells; a failed check on a whole
        run (different output, a warm report that simulated) fails every
        cell of that run.  The verify record re-renders a measured run,
        so its lookups are not attempted cells: only its failures count.
        """
        records = self.untraced + self.traced
        whole_run: dict = {}
        if self.w.kind == "report":
            records.append(self.verified)
            ref = primed["stdout_sha256"] if self.w.warm \
                else self.verified["stdout_sha256"]
            for r in records:
                if r["stdout_sha256"] != ref:
                    whole_run[id(r)] = "report stdout differs between runs"
                elif self.w.warm and r["sim_cells"]:
                    whole_run[id(r)] = (f"report-warm simulated "
                                        f"{r['sim_cells']} cell(s)")
        else:
            ref = records[0]["cells_digest"]
            for r in records:
                if r["cells_digest"] != ref:
                    whole_run[id(r)] = ("per-cell cycles differ between "
                                        "cell orders")
        for r in records:
            failures = list(r["failures"])
            if id(r) in whole_run:
                failures.append(whole_run[id(r)])
            if r is self.verified:
                self.failed += len(failures)
            else:
                self.attempted += r["attempted"]
                self.failed += (r["attempted"] if id(r) in whole_run
                                else len(failures))
            run = r.get("index", "verify")
            self.failures.extend(f"{self.w.name} run {run}: {f}"
                                 for f in failures)

    def _paper_err_pct(self) -> list:
        source = [self.verified] if self.w.kind == "report" else self.untraced
        values = []
        for r in source:
            try:
                values.append(defs.paper_err_pct(r["paper_pairs"]))
            except ValueError as err:
                self.failures.append(f"{self.w.name}: paper_err_pct: {err}")
                self.failed += 1
        return values


def ref_s(record: dict, key: str) -> float:
    """A host time of one record in reference-host seconds: scaled by
    the host speed its child sampled (see ``child.HostSpeed``)."""
    return record[key] * record["speed"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(record: dict) -> dict:
    """Per-layer metrics of one traced record (overhead excluded); times
    in reference-host seconds."""
    spans = record["spans"]
    speed = record["speed"]
    out = {}
    for span in SPANS:
        agg = spans.get(span, {"calls": 0, "self_s": 0.0})
        out[f"{span}.calls"] = agg["calls"]
        out[f"{span}.self_s"] = agg["self_s"] * speed
    c = record["counters"]
    jit = record["jit"]
    out.update({
        "engine.cache_hit_ratio": _ratio(record["cache_hits"],
                                         record["cache_gets"]),
        "sim.cells": record["sim_cells"],
        "sim.instructions": record["sim_instructions"],
        "sim.cycles": record["sim_cycles"],
        "jit.batched_share": _ratio(jit["batched_instructions"],
                                    record["sim_instructions"]),
        "jit.deopts": jit["deopts"],
        "jit.compile_rejects": jit["compile_rejects"],
        "vbox.plan_cache_hit_ratio": _ratio(
            c["addr_gens.plan_cache_hits"],
            c["addr_gens.plan_cache_hits"] + c["addr_gens.plan_cache_misses"]),
        "vbox.crbox_tournaments": c["crbox.tournaments"],
        "vbox.tlb_misses": c["vtlb.misses"],
        "mem.l2_line_hit_ratio": _ratio(
            c["l2.line_hits"], c["l2.line_hits"] + c["l2.line_misses"]),
        "mem.maf_stalls": c["l2.maf_stalls"],
        "mem.rambus_row_hit_ratio": _ratio(
            c["zbox.rambus.row_hits"],
            c["zbox.rambus.row_hits"] + c["zbox.rambus.row_activates"]),
        "mem.rambus_bytes": c["zbox.rambus.bytes"],
        "trace.unattributed_s": speed * (record["wall_internal_s"] - sum(
            agg["self_s"] for agg in spans.values())),
    })
    return out


# -- the schedule ---------------------------------------------------------------


def measure(session: Session, workloads, runs: dict | None,
            seconds: float | None, trace: int | None) -> dict:
    """Run every workload, rotating between them, until each has its
    ``runs`` (or ``seconds`` of) iterations; then verify, trace, check."""
    results = {w.name: WorkloadRun(w) for w in workloads}

    def wants_more(wr: WorkloadRun) -> bool:
        n = len(wr.untraced)
        if runs is not None:
            return n < runs[wr.w.name]
        # start another iteration only if it should end within budget
        return n == 0 or wr.spent_s * (n + 1) / n <= seconds

    index = 0
    while True:
        active = [wr for wr in results.values() if wants_more(wr)]
        if not active:
            break
        for wr in active:
            wr.untraced.append(session.iteration(wr.w, index, trace=0))
            if trace == 1:
                wr.traced.append(session.iteration(wr.w, index, trace=1))
        index += 1
    for wr in results.values():
        if trace is None:
            wr.traced.append(session.iteration(wr.w, index, trace=1))
        if wr.w.kind == "report":
            wr.verified = session.verify(wr.w, wr.untraced[-1])
        wr.finish(session.primed)
    return results


# -- output -----------------------------------------------------------------------


def host_info(load: tuple) -> dict:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "load_before": load,
        "load_after": os.getloadavg(),
    }


def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def render_end_to_end(results: dict) -> str:
    lines = ["end-to-end (untraced runs; median [q1, q3] over n; host "
             "times in reference-host seconds)",
             f"  {'workload':<16s} {'metric':<17s} {'median':>11s} "
             f"{'q1':>11s} {'q3':>11s} {'n':>3s}  unit"]
    for name, wr in results.items():
        rows = list(wr.end_to_end.items()) + [
            ("(host speed)", dict(wr.host["speed"], unit="x")),
            ("(unscaled wall)", dict(wr.host["raw_wall_s"], unit="s"))]
        for metric, s in rows:
            lines.append(f"  {name:<16s} {metric:<17s} "
                         f"{_fmt(s['median']):>11s} {_fmt(s['q1']):>11s} "
                         f"{_fmt(s['q3']):>11s} {s['n']:>3d}  {s['unit']}")
    return "\n".join(lines)


def render_per_layer(results: dict) -> str:
    lines = []
    for name, wr in results.items():
        layers = wr.per_layer
        if not layers:
            continue
        wall = defs.summarize([ref_s(r, "wall_internal_s")
                               for r in wr.traced])
        absent = set(wr.absent)
        lines.append(f"per-layer: {name} (traced wall "
                     f"{wall['median']:.2f}s, overhead "
                     f"{layers['trace.overhead_pct']:+.1f}%)")
        lines.append(f"  {'span':<24s} {'calls':>10s} {'self_s':>9s} "
                     f"{'share':>7s}")
        for span in SPANS:
            if span in absent:
                lines.append(f"  {span:<24s} {'absent':>10s}")
                continue
            calls = layers[f"{span}.calls"]
            own = layers[f"{span}.self_s"]
            if calls:
                lines.append(f"  {span:<24s} {calls:>10.0f} {own:>8.3f}s "
                             f"{100 * own / wall['median']:>6.1f}%")
        unattributed = layers["trace.unattributed_s"]
        lines.append(f"  {'(unattributed)':<24s} {'':>10s} "
                     f"{unattributed:>8.3f}s "
                     f"{100 * unattributed / wall['median']:>6.1f}%")
        for counter, unit, _ in defs.LAYER_COUNTERS:
            if counter.startswith("trace."):
                continue
            lines.append(f"  {counter:<28s} {_fmt(layers[counter]):>12s} "
                         f"{unit}")
    return "\n".join(lines)


def result_line(results: dict, trace: int | None) -> dict:
    """The last line of output: per the BENCHMARK.json contract."""
    single = len(results) == 1
    metrics = {}
    for name, wr in results.items():
        prefix = "" if single else f"{name}/"
        if trace != 1:
            for m in defs.END_TO_END:
                # a metric that could not be computed has failed a check
                summary = wr.end_to_end.get(m.name, {})
                metrics[prefix + m.name] = {"value": summary.get("median"),
                                            "unit": m.unit}
        if trace != 0:
            for metric, unit, _ in defs.layer_metrics(SPANS):
                metrics[prefix + metric] = {"value": wr.per_layer[metric],
                                            "unit": unit}
    failed = sum(wr.failed for wr in results.values())
    return {"correct": failed == 0,
            "attempted": sum(wr.attempted for wr in results.values()),
            "failed": failed, "metrics": metrics}


def write_results(path: Path, results: dict, host: dict, args) -> None:
    settings = {k: v for k, v in vars(args).items()
                if k not in ("src", "out")}
    doc = {"host": host, "settings": settings, "workloads": {}}
    for name, wr in results.items():
        doc["workloads"][name] = {
            "attempted": wr.attempted, "failed": wr.failed,
            "failures": wr.failures,
            "end_to_end": wr.end_to_end,
            "host": wr.host,
            "per_layer": wr.per_layer,
            "absent": wr.absent,
        }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0].replace("\n", " "))
    parser.add_argument("--workload", action="append",
                        choices=defs.WORKLOAD_NAMES,
                        help="repeatable; default: all four")
    parser.add_argument("--runs", type=int, default=None,
                        help="untraced runs per workload (report-warm: "
                             f"{WARM_RUN_FACTOR}x); default 3, --smoke 1")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run each workload for this long instead")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the sweep cell orders")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced only; 1: pair every run with a "
                             "traced run; default: one traced run at the end")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells: a seconds-long self-test")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="source tree to measure (default: this "
                             "checkout's src/)")
    parser.add_argument("--out", type=Path, default=None,
                        help="results directory (default: a new one "
                             "under .bench_perf/)")
    args = parser.parse_args(argv)
    if args.runs is not None and args.seconds is not None:
        parser.error("--runs and --seconds are exclusive")
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    args.src = args.src.resolve()
    if not (args.src / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {args.src}", file=sys.stderr)
        return 2
    workloads = [defs.workload(n)
                 for n in dict.fromkeys(args.workload or defs.WORKLOAD_NAMES)]
    runs = None
    if args.seconds is None:
        n = args.runs or (1 if args.smoke else 3)
        runs = {w.name: n * (WARM_RUN_FACTOR if w.warm else 1)
                for w in workloads}

    load = os.getloadavg()
    session = Session(args.src, args.seed, args.smoke)
    try:
        results = measure(session, workloads, runs, args.seconds, args.trace)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        session.close()
    host = host_info(load)
    for when in ("load_before", "load_after"):
        if host[when][0] > host["nproc"]:
            print(f"run.py: warning: load average {host[when][0]:.2f} "
                  f"exceeds nproc={host['nproc']} ({when}); timings are "
                  "suspect", file=sys.stderr)

    out = args.out or Path(tempfile.mkdtemp(prefix="results-", dir=WORK_ROOT))
    out.mkdir(parents=True, exist_ok=True)
    write_results(out / "results.json", results, host, args)

    print(f"host: nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} load {load[0]:.2f} -> "
          f"{host['load_after'][0]:.2f}")
    print(render_end_to_end(results))
    if args.trace != 0:
        print(render_per_layer(results))
    for wr in results.values():
        for failure in wr.failures:
            print(f"FAILED {failure}")
    print(f"results: {out / 'results.json'}")
    print(json.dumps(result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
