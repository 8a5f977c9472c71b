"""Command-line front-end: run an experiment plan and serialize the results.

Outputs in the chosen directory:
  config.resolved  the fully resolved configuration actually used; written
                   last, it marks the directory as holding a complete run
  samples.csv      per-(sample, N) values: X_N, X and the gap Y_N
  summary.csv      per-N ensemble means with 95% confidence half-widths
  report.txt       convergence table, tail diagnostics and an informational
                   log-log slope of mean Y_N versus N
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import RunOptions, format_resolved, parse_config
from .ensemble import (ExperimentPlan, SampleResult, SummaryRow, estimate,
                       run_ensemble, tail_diagnostic)
from .errors import ConsistencyError, MFLabError


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def samples_csv_text(results: list[SampleResult]) -> str:
    lines = ["sample_index,seed,N,x_manybody,x_hartree,y"]
    for r in sorted(results, key=lambda s: s.sample_index):
        for n in sorted(r.x_manybody):
            lines.append(",".join([
                str(r.sample_index), str(r.seed), str(n),
                _fmt(r.x_manybody[n]), _fmt(r.x_hartree), _fmt(r.y[n]),
            ]))
    return "\n".join(lines) + "\n"


def summary_csv_text(rows: list[SummaryRow]) -> str:
    lines = ["N,mean_x_manybody,mean_x_hartree,mean_y,ci95_y,samples"]
    for row in sorted(rows, key=lambda r: r.n):
        lines.append(",".join([
            str(row.n), _fmt(row.mean_x_manybody), _fmt(row.mean_x_hartree),
            _fmt(row.mean_y), _fmt(row.ci95_y), str(row.samples),
        ]))
    return "\n".join(lines) + "\n"


def loglog_slope(rows: list[SummaryRow]) -> float | None:
    """Least-squares slope of log(mean_y) against log(N); None if undefined."""
    pts = [(r.n, r.mean_y) for r in rows if r.mean_y > 0]
    if len(pts) < 2:
        return None
    ln_n = np.log([p[0] for p in pts])
    ln_y = np.log([p[1] for p in pts])
    return float(np.polyfit(ln_n, ln_y, 1)[0])


def report_text(rows: list[SummaryRow], norm_a: float, beta: float,
                tails: tuple[dict[int, float], float]) -> str:
    lines = ["Mean-field convergence report", "=" * 29, ""]
    lines.append(f"observable norm  : {_fmt(norm_a)}")
    lines.append(f"samples          : {rows[0].samples}")
    lines.append("")
    lines.append(f"{'N':>6} {'mean_X_N':>24} {'mean_X':>24} "
                 f"{'mean_Y_N':>24} {'ci95_Y_N':>24}")
    for row in sorted(rows, key=lambda r: r.n):
        lines.append(f"{row.n:>6} {_fmt(row.mean_x_manybody):>24} "
                     f"{_fmt(row.mean_x_hartree):>24} {_fmt(row.mean_y):>24} "
                     f"{_fmt(row.ci95_y):>24}")
    lines.append("")
    per_n, hartree_tail = tails
    lines.append(f"tail diagnostic at beta = {_fmt(beta)} "
                 "(empirical E(|X_N| 1{|X_N| >= beta}))")
    for n in sorted(per_n):
        lines.append(f"  N = {n:<4} tail = {_fmt(per_n[n])}")
    lines.append(f"  Hartree  tail = {_fmt(hartree_tail)}")
    lines.append("")
    slope = loglog_slope(rows)
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
        results = run_ensemble(plan)
        rows = estimate(results)
        for row in rows:
            gap = abs(row.mean_x_hartree - row.mean_x_manybody)
            if not (gap <= row.mean_y + 1e-12):
                raise ConsistencyError(
                    f"triangle inequality violated at N={row.n}: "
                    f"|mean_X - mean_X_N| = {gap!r} > mean_Y = {row.mean_y!r}"
                )
        tails = tail_diagnostic(results, options.beta)
    except MFLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # config.resolved is the commit marker: removed before the first write and
    # written last, so a directory holds a complete run iff it has that file.
    marker = out_dir / "config.resolved"
    try:
        marker.unlink(missing_ok=True)
        _write_atomic(out_dir / "samples.csv", samples_csv_text(results))
        _write_atomic(out_dir / "summary.csv", summary_csv_text(rows))
        _write_atomic(out_dir / "report.txt",
                      report_text(rows, plan.observable_norm, options.beta, tails))
        _write_atomic(marker, format_resolved(options.resolved))
    except OSError as exc:
        print(f"error: cannot write results to {out_dir}: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
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
        rows_path = Path(options.output_dir) / "report.txt"
        print(f"wrote results to {options.output_dir} (see {rows_path.name})")
    return status


if __name__ == "__main__":
    sys.exit(main())
