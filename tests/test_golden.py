"""The benchmark workloads reproduce their committed golden CSVs.

Each workload in perfbench/workloads runs in-process at the golden seed;
integer columns must match perfbench/golden/<workload>/ exactly and float
columns to 1e-12, the tolerance of the benchmark's own golden gate.
"""
import csv
from pathlib import Path

import numpy as np
import pytest

from mflab.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_SEED = 20240817
TOL = 1e-12
INT_COLUMNS = {"sample_index", "seed", "N", "samples"}


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = ["convergence", "reach", "long_time", "smoke"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_golden(workload, tmp_path):
    _assert_run_matches_golden(workload, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_on_grid_fft_alone(workload, tmp_path, monkeypatch):
    # grid.grid_fft is the one FFT: no run reaches np.fft.fftn or ifftn
    def no_fftn(*args, **kwargs):
        raise AssertionError("np.fft.fftn or ifftn called")

    monkeypatch.setattr(np.fft, "fftn", no_fftn)
    monkeypatch.setattr(np.fft, "ifftn", no_fftn)
    _assert_run_matches_golden(workload, tmp_path)


def _assert_run_matches_golden(workload, tmp_path):
    status = main(["--config", str(PERFBENCH / "workloads" / f"{workload}.cfg"),
                   "--seed", str(GOLDEN_SEED), "--out-dir", str(tmp_path)])
    assert status == 0
    for name in ("samples.csv", "summary.csv"):
        got = _rows(tmp_path / name)
        want = _rows(PERFBENCH / "golden" / workload / name)
        assert len(got) == len(want), name
        for line, (g, w) in enumerate(zip(got, want), start=2):
            assert g.keys() == w.keys(), name
            for col in w:
                if col in INT_COLUMNS:
                    assert g[col] == w[col], f"{name} line {line} {col}"
                else:
                    assert abs(float(g[col]) - float(w[col])) <= TOL, (
                        f"{name} line {line} {col}: {g[col]} vs {w[col]}")
