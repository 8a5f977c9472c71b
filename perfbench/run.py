"""mflab benchmark: run the CLI pipeline as a user does, one child per run.

    python3 perfbench/run.py --workload convergence --seed 20240817 \
        --seconds 35 --trace 0

Each operation is one ``mflab --config <workload> --seed <seed> --threads T``
run in its own child process (``child.py``), with BLAS pinned to one thread.
It counts as failed if the child exits nonzero, if a CSV differs from the
golden reference (checked only at GOLDEN_SEED), or if its CSVs are not
byte-identical to those of the run's first operation, which differs from it in
thread count or tracing only.

``--trace 0`` reports the end-to-end metrics: the median wall time and peak
RSS of the 1- and 2-thread runs, and the median set-up time (spawn until
``parse_config`` returns) over several set-up-only children and every run.
``--trace 1`` alternates untraced and traced 1-thread runs and reports the
per-layer self times, call counts and sector sizes of the traced runs, with
the full trace written to ``perfbench/out/<run>/trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN_SEED = 20240817
GOLDEN_TOL = 1e-12
CSV_FILES = ("samples.csv", "summary.csv")
OUTPUT_FILES = ("config.resolved", *CSV_FILES, "report.txt")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0     # the whole benchmark exits well within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def unit_of(metric: str) -> str:
    base = metric.split(".N")[0]
    if base.endswith("_us"):
        return "us"
    if base.endswith(("_s", "_s_2t")):
        return "s"
    if "_mib" in base:
        return "MiB"
    return "count"


def environment() -> dict:
    import numpy as np
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unavailable"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu.max": cpu_max,
        "child_env": PINNED_ENV,
    }


class Runner:
    """Spawns children for one workload and seed, and checks their outputs."""

    def __init__(self, workload: str, seed: int, run_dir: Path, deadline: float):
        self.config = HERE / "workloads" / f"{workload}.cfg"
        self.golden = HERE / "golden" / workload if seed == GOLDEN_SEED else None
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.reference: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self._count = 0

    def spawn(self, mode: str, threads: int = 1, traced: bool = False) -> dict:
        """One child; returns its report plus wall_s, setup_s and peak_rss_mib."""
        self._count += 1
        tag = f"{self._count:03d}-{mode}-{threads}t{'-traced' if traced else ''}"
        out_dir = self.run_dir / tag
        report_path = self.run_dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path), mode,
               "1" if traced else "0", str(self.config)]
        if mode == "run":
            cmd += ["--seed", str(self.seed), "--threads", str(threads),
                    "--out-dir", str(out_dir)]
        limit = self.deadline - time.monotonic()
        if limit <= 0:
            raise BenchError("out of time before a child could start")
        with open(self.run_dir / f"{tag}.log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.monotonic() - start
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text())
        report.update(tag=tag, threads=threads, traced=traced,
                      status=proc.returncode, wall_s=wall,
                      peak_rss_mib=usage.ru_maxrss / 1024.0)
        if "parse_config_done" in report:
            report["setup_s"] = report["parse_config_done"] - start
        mflab_file = Path(report.get("mflab_file", "/"))
        if SRC not in mflab_file.parents:
            raise BenchError(f"child did not import mflab from {SRC} ({tag}.log)")
        if mode == "run":
            self._check(report, out_dir)
        elif proc.returncode != 0:
            raise BenchError(f"set-up child failed; see {tag}.log")
        return report

    def _check(self, report: dict, out_dir: Path) -> None:
        self.attempted += 1
        problem = self._problem(report, out_dir)
        report["problem"] = problem
        if problem:
            self.failed += 1
            print(f"FAILED {report['tag']}: {problem}", flush=True)

    def _problem(self, report: dict, out_dir: Path) -> str | None:
        if report["status"] != 0:
            return f"exit status {report['status']}"
        missing = [f for f in OUTPUT_FILES if not (out_dir / f).is_file()]
        if missing:
            return f"missing outputs {missing}"
        csvs = {f: (out_dir / f).read_bytes() for f in CSV_FILES}
        if self.golden is not None:
            for name in CSV_FILES:
                diff = golden_difference(csvs[name].decode(),
                                         (self.golden / name).read_text())
                if diff:
                    return f"{name} differs from the golden reference: {diff}"
        if self.reference is None:
            self.reference = csvs
        elif csvs != self.reference:
            return "CSVs are not byte-identical across thread counts or tracing"
        return None


def golden_difference(got: str, want: str) -> str | None:
    """First cell where got and want differ beyond GOLDEN_TOL, or None."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if len(got_rows) != len(want_rows):
        return f"{len(got_rows)} lines, expected {len(want_rows)}"
    for lineno, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        if len(g_row) != len(w_row):
            return f"line {lineno}: {len(g_row)} fields, expected {len(w_row)}"
        for g, w in zip(g_row, w_row):
            if g == w:
                continue
            try:
                if "." in g + w or "e" in g + w:
                    if abs(float(g) - float(w)) <= GOLDEN_TOL:
                        continue
            except ValueError:
                pass
            return f"line {lineno}: {g} != {w}"
    return None


def measure(runner: Runner, pair: list[tuple[int, bool]], seconds: float
            ) -> list[dict]:
    """Repeat the pair of runs, in alternating order, while it fits `seconds`."""
    reports: list[dict] = []
    started = time.monotonic()
    last = 0.0
    while not reports or time.monotonic() - started + last <= seconds:
        t0 = time.monotonic()
        order = pair if len(reports) % (2 * len(pair)) == 0 else pair[::-1]
        reports += [runner.spawn("run", threads, traced)
                    for threads, traced in order]
        last = time.monotonic() - t0
    return reports


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    runner.spawn("setup")   # warm the file cache and bytecode; not timed
    setups = [runner.spawn("setup") for _ in range(SETUP_RUNS)]
    runs = measure(runner, [(1, False), (2, False)], seconds)

    def median(key, threads):
        return statistics.median(r[key] for r in runs if r["threads"] == threads)

    return {
        "wall_s": median("wall_s", 1),
        "wall_s_2t": median("wall_s", 2),
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs
                                     if "setup_s" in r),
        "peak_rss_mib": median("peak_rss_mib", 1),
        "peak_rss_mib_2t": median("peak_rss_mib", 2),
    }


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metric values of one traced child report."""
    layers, out = report.get("layers", {}), dict(report.get("counts", {}))
    for key, slot in layers.items():
        base, _, n = key.partition(".N")
        name = f"{base}_s.N{n}" if n else f"{base}_s"
        out[name] = slot["self_s"]
    for key in ("hartree.hartree_step", "grid.convolve"):
        if key in layers:
            out[f"{key}_calls"] = layers[key]["calls"]
    step = layers.get("hartree.hartree_step")
    if step and step["calls"]:
        out["hartree.step_us"] = 1e6 * step["incl_s"] / step["calls"]
    if "cli.main_s" in out:
        out["cli.write_self_s"] = out.pop("cli.main_s")
    if "import_s" in report:
        out["process.import_s"] = report["import_s"]
    return out


def per_layer(runner: Runner, seconds: float, run_dir: Path) -> dict[str, float]:
    runner.spawn("setup")   # warm the file cache and bytecode; not timed
    runs = measure(runner, [(1, False), (1, True)], seconds)
    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    samples = [layer_metrics(r) for r in traced]
    names = sorted(set().union(*samples))
    metrics = {name: statistics.median(s.get(name, 0.0) for s in samples)
               for name in names}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in plain))
    (run_dir / "trace.json").write_text(json.dumps(
        {"metrics": metrics, "runs": traced}, indent=1, sort_keys=True))
    return metrics


def run(spec: dict, workload: str, seed: int, seconds: float, trace: int
        ) -> dict:
    """One benchmark run; returns the result object that run.py prints last."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (HERE / "workloads" / f"{workload}.cfg").is_file():
        raise BenchError(f"no workload {workload!r} in {HERE / 'workloads'}")
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, seed, run_dir, deadline)
    if trace:
        measured = per_layer(runner, seconds, run_dir)
    else:
        measured = end_to_end(runner, seconds)

    declared = spec["per_layer" if trace else "end_to_end"]
    absent = [m["name"] for m in declared if m["name"] not in measured]
    if absent:
        print("absent (the layer never ran; reported as 0):", " ".join(absent))
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0),
                           "unit": unit_of(m["name"])} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6f} {m['unit']}")
    for name in sorted(set(measured) - set(metrics)):
        print(f"  {name:42s} {measured[name]:>16.6f} {unit_of(name)}"
              "  (not in BENCHMARK.json)")
    print(f"operations: {runner.failed} failed of {runner.attempted} attempted",
          flush=True)
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, 'smoke', or 'all' "
                             "for every workload of BENCHMARK.json at both "
                             "--trace settings")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mflab" / "__init__.py").is_file():
        print(f"error: mflab sources not found under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(PINNED_ENV)   # before numpy loads BLAS, here and in children
    if args.workload == "all":
        runs = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]

    print("environment:", json.dumps(environment()), flush=True)
    results = {}
    try:
        for workload, trace in runs:
            print(f"{workload} --seed {args.seed} --trace {trace}:", flush=True)
            results[workload, trace] = run(spec, workload, args.seed,
                                           args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[runs[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
