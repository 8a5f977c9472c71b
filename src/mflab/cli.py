"""Command-line front-end: run an experiment plan and serialize the results.

Outputs in the chosen directory:
  config.resolved  the fully resolved configuration actually used; written
                   last, it marks the directory as holding a complete run
  samples.csv      per-(sample, N) values: X_N, X and the gap Y_N
  summary.csv      per-N ensemble means with 95% confidence half-widths
  report.txt       convergence table, tail diagnostics and an informational
                   log-log slope of mean Y_N versus N

Each output is UTF-8 text, the encoding the config is read in, written to a
fresh hidden name by ``open(tmp, "x")`` and renamed into place, so it gets the
permissions ``open(path, "w")`` would give it under the current umask.

``main`` registers ``gc.freeze`` to run at exit. The objects that numpy and
scipy leave tracked then sit in the permanent generation, so the collections
of interpreter shutdown skip them. On a 2-vCPU host that cuts the time from
``main`` returning to process exit from about 26 ms to about 5 ms, a tenth of
a small run. Nothing is frozen while ``main`` runs, and importing this module
does not touch the garbage collector.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from pathlib import Path

import numpy as np

from .config import RunOptions, format_resolved, parse_config
from .ensemble import (EnsembleResult, ExperimentPlan, SummaryRow, estimate,
                       run_ensemble, tail_diagnostic)
from .errors import ConsistencyError, MFLabError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    # "x" creates a fresh name, with the mode of open(path, "w"), which os.replace keeps
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def samples_csv_text(result: EnsembleResult) -> str:
    lines = ["sample_index,seed,N,x_manybody,x_hartree,y"]
    per_sample = zip(result.seeds, result.x_hartree, result.x_manybody.T, result.y.T)
    for i, (seed, x_h, xs, ys) in enumerate(per_sample):
        for n, x, y in zip(result.counts, xs, ys):
            lines.append(",".join([str(i), str(seed), str(n), _fmt(x), _fmt(x_h), _fmt(y)]))
    return "\n".join(lines) + "\n"


def summary_csv_text(rows: list[SummaryRow]) -> str:
    lines = ["N,mean_x_manybody,mean_x_hartree,mean_y,ci95_y,samples"]
    for row in rows:
        lines.append(",".join([
            str(row.n), _fmt(row.mean_x_manybody), _fmt(row.mean_x_hartree),
            _fmt(row.mean_y), _fmt(row.ci95_y), str(row.samples),
        ]))
    return "\n".join(lines) + "\n"


def loglog_slope(rows: list[SummaryRow], roundoff: float) -> float | None:
    """Least-squares slope of log(mean_y) against log(N) over the N whose
    mean_y exceeds roundoff; None if fewer than two do."""
    pts = [(r.n, r.mean_y) for r in rows if r.mean_y > roundoff]
    if len(pts) < 2:
        return None
    ln_n = np.log([p[0] for p in pts])
    ln_y = np.log([p[1] for p in pts])
    return float(np.polyfit(ln_n, ln_y, 1)[0])


def report_text(rows: list[SummaryRow], plan: ExperimentPlan, beta: float,
                tails: tuple[dict[int, float], float]) -> str:
    lines = ["Mean-field convergence report", "=" * 29, ""]
    lines.append(f"observable norm  : {_fmt(plan.observable_norm)}")
    lines.append(f"samples          : {rows[0].samples}")
    lines.append("")
    lines.append(f"{'N':>6} {'mean_X_N':>24} {'mean_X':>24} "
                 f"{'mean_Y_N':>24} {'ci95_Y_N':>24}")
    for row in rows:
        lines.append(f"{row.n:>6} {_fmt(row.mean_x_manybody):>24} "
                     f"{_fmt(row.mean_x_hartree):>24} {_fmt(row.mean_y):>24} "
                     f"{_fmt(row.ci95_y):>24}")
    lines.append("")
    per_n, hartree_tail = tails
    lines.append(f"tail diagnostic at beta = {_fmt(beta)} "
                 "(empirical E(|X_N| 1{|X_N| >= beta}))")
    for n in per_n:
        lines.append(f"  N = {n:<4} tail = {_fmt(per_n[n])}")
    lines.append(f"  Hartree  tail = {_fmt(hartree_tail)}")
    lines.append("")
    slope = loglog_slope(rows, plan.roundoff)
    if slope is None:
        lines.append("log-log slope of mean_Y_N vs N: n/a (informational)")
    else:
        lines.append(f"log-log slope of mean_Y_N vs N: {slope:+.3f} "
                     "(informational; the limit theorem asserts no rate)")
    return "\n".join(lines) + "\n"


def run_experiment(plan: ExperimentPlan, options: RunOptions) -> int:
    """Execute the plan and write all outputs; returns a process exit status."""
    out_dir = Path(options.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory {out_dir} is not writable: {exc}",
              file=sys.stderr)
        return 1

    try:
        result = run_ensemble(plan)
        rows = estimate(result)
        for row in rows:
            gap = abs(row.mean_x_hartree - row.mean_x_manybody)
            if not (gap <= row.mean_y + plan.roundoff):
                raise ConsistencyError(
                    f"triangle inequality violated at N={row.n}: "
                    f"|mean_X - mean_X_N| = {gap!r} > mean_Y = {row.mean_y!r}"
                )
        tails = tail_diagnostic(result, options.beta)
    except MFLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # config.resolved is the commit marker: removed before the first write and
    # written last, so a directory holds a complete run iff it has that file.
    marker = out_dir / "config.resolved"
    try:
        marker.unlink(missing_ok=True)
        _write_atomic(out_dir / "samples.csv", samples_csv_text(result))
        _write_atomic(out_dir / "summary.csv", summary_csv_text(rows))
        _write_atomic(out_dir / "report.txt",
                      report_text(rows, plan, options.beta, tails))
        _write_atomic(marker, format_resolved(options.resolved))
    except OSError as exc:
        print(f"error: cannot write results to {out_dir}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run the ``mflab`` command line; returns a process exit status.

    The first thing it does is register ``gc.freeze`` to run at exit, once
    however many times ``main`` is called. atexit handlers run before the
    interpreter's finalization collections, and a frozen object is skipped by
    them, so shutdown does not walk the ~40k objects that numpy and scipy
    leave tracked. The garbage collector is left alone until then: an
    in-process caller keeps normal collection after ``main`` returns.

    What this gives up: objects kept alive only by reference cycles are not
    finalized at exit, which CPython never promises anyway. Every output is
    closed by ``_write_atomic`` before ``main`` returns, and stdout and stderr
    are still flushed at shutdown.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = argparse.ArgumentParser(
        prog="mflab",
        description="Compare exact N-boson dynamics with the Hartree mean-field "
                    "flow over sampled random interactions.",
    )
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out-dir", help="output directory (default: config output_dir)")
    parser.add_argument("--samples", help="override the number of Monte Carlo samples")
    parser.add_argument("--seed", help="override the base seed")
    parser.add_argument("--threads", type=int,
                        help="ignored: runs are sequential; still accepted because "
                             "perfbench/run.py passes it")
    args = parser.parse_args(argv)
    flags = {"samples": args.samples, "base_seed": args.seed,
             "output_dir": args.out_dir}

    try:
        plan, options = parse_config(
            args.config, {k: v for k, v in flags.items() if v is not None})
    except MFLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    status = run_experiment(plan, options)
    if status == 0:
        print(f"wrote results to {options.output_dir} (see report.txt)")
    return status


if __name__ == "__main__":
    sys.exit(main())
