import math
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import mflab
import mflab.cli
import mflab.hartree
from mflab.cli import main, run_experiment
from mflab.config import _DEFAULTS, parse_config
from mflab.errors import ConfigError
from mflab.random_field import mix_seed


MINIMAL = "dimension = 1\nsites = 8\n"

SMALL_RUN = """\
dimension = 1
sites = 6
box_length = 6.0
t_final = 0.25
particle_counts = 1,2
samples = 4
base_seed = 77
field.base = gaussian_bump(1.0, 1.2)
field.sigmas = 0.5,0.2
"""


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_minimal_config_uses_defaults(tmp_path):
    plan, options = parse_config(_write(tmp_path, MINIMAL))
    assert plan.grid.d == 1 and plan.grid.m == 8 and plan.grid.length == 8.0
    assert plan.t_final == 0.5
    assert plan.dt == pytest.approx(0.5 / 512)
    assert plan.particle_counts == (2, 4, 6)
    assert plan.samples == 64
    assert plan.observable.p == 1
    assert options.beta == plan.observable_norm / 2
    assert options.beta == pytest.approx(0.5)  # the projector has norm 1
    assert options.resolved["beta"] == "auto"
    assert options.output_dir == "./out"


def test_descending_particle_counts_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "particle_counts = 4,2\n")
    with pytest.raises(ConfigError, match="strictly ascending"):
        parse_config(path)


def test_oversized_sigma_list_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "field.sigmas = 0.1,0.1,0.1,0.1\n")
    with pytest.raises(ConfigError, match="K < M/2"):
        parse_config(path)


def test_unknown_key_rejected(tmp_path):
    for key, value in [("volume", "3"), ("field.enforce_even", "true")]:
        path = _write(tmp_path, MINIMAL + f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(path)


def test_readme_config_table_lists_exactly_the_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n\n| key |", 1)[1]
    rows = [line for line in table.split("\n\n", 1)[0].splitlines()
            if line.startswith("| `")]
    keys = [k for row in rows for k in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert keys == list(_DEFAULTS)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(_write(tmp_path, "dimension 1\n"))


def test_run_experiment_writes_outputs(tmp_path):
    plan, options = parse_config(_write(tmp_path, SMALL_RUN))
    options.output_dir = str(tmp_path / "out")
    assert run_experiment(plan, options) == 0
    out = tmp_path / "out"
    for name in ("config.resolved", "samples.csv", "summary.csv", "report.txt"):
        assert (out / name).is_file()
    report = (out / "report.txt").read_text()
    assert "informational" in report
    resolved = (out / "config.resolved").read_text()
    assert "sites = 6" in resolved
    assert "particle_counts = 1,2" in resolved


def test_samples_csv_round_trip(tmp_path):
    from mflab.ensemble import run_ensemble

    plan, options = parse_config(_write(tmp_path, SMALL_RUN))
    options.output_dir = str(tmp_path / "out")
    assert run_experiment(plan, options) == 0
    results = {(r.sample_index, n): (r.x_manybody[n], r.x_hartree, r.y[n])
               for r in run_ensemble(plan)
               for n in r.x_manybody}
    lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample_index,seed,N,x_manybody,x_hartree,y"
    assert len(lines) == 1 + plan.samples * len(plan.particle_counts)
    prev_key = None
    for line in lines[1:]:
        idx, seed, n, x_mb, x_h, y = line.split(",")
        key = (int(idx), int(n))
        if prev_key is not None:
            assert key > prev_key  # sample_index asc, then N asc
        prev_key = key
        exact = results[key]
        # 17 significant digits round-trips float64 exactly
        assert float(x_mb) == exact[0]
        assert float(x_h) == exact[1]
        assert float(y) == exact[2]


def test_summary_csv_schema(tmp_path):
    plan, options = parse_config(_write(tmp_path, SMALL_RUN))
    options.output_dir = str(tmp_path / "out")
    assert run_experiment(plan, options) == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert lines[0] == "N,mean_x_manybody,mean_x_hartree,mean_y,ci95_y,samples"
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == sorted(plan.particle_counts)
    for line in lines[1:]:
        assert int(line.split(",")[-1]) == plan.samples


def test_outputs_identical_across_thread_counts(tmp_path):
    # --threads is accepted and ignored: both runs are the same sequential run
    cfg = _write(tmp_path, SMALL_RUN)
    blobs = []
    for threads, sub in (("1", "a"), ("8", "b")):
        out = tmp_path / sub
        assert main(["--config", str(cfg), "--out-dir", str(out),
                     "--threads", threads]) == 0
        blobs.append(((out / "samples.csv").read_bytes(),
                      (out / "summary.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def test_failed_write_leaves_no_commit_marker(tmp_path, monkeypatch, capsys):
    plan, options = parse_config(_write(tmp_path, SMALL_RUN))
    options.output_dir = str(tmp_path / "out")
    assert run_experiment(plan, options) == 0  # an earlier complete run
    assert (tmp_path / "out" / "config.resolved").is_file()
    write = mflab.cli._write_atomic

    def failing_write(path, text):
        if path.name == "summary.csv":
            raise OSError("disk full")
        write(path, text)

    monkeypatch.setattr(mflab.cli, "_write_atomic", failing_write)
    capsys.readouterr()
    assert run_experiment(plan, options) == 1
    err = capsys.readouterr().err
    assert "cannot write results" in err and "disk full" in err
    assert not (tmp_path / "out" / "config.resolved").exists()


def test_unwritable_out_dir_leaves_nothing_behind(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    plan, options = parse_config(_write(tmp_path, SMALL_RUN))
    options.output_dir = str(blocker / "out")  # cannot create below a file
    assert run_experiment(plan, options) != 0
    assert not (blocker / "out").exists()


def test_main_with_overrides(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    out = tmp_path / "cli-out"
    status = main(["--config", str(cfg), "--out-dir", str(out),
                   "--samples", "2", "--seed", "5", "--threads", "1"])
    assert status == 0
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # 2 samples x 2 particle counts
    resolved = (out / "config.resolved").read_text()
    assert "samples = 2" in resolved
    assert "base_seed = 5" in resolved
    assert "threads" not in resolved


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "must fit in 64 unsigned bits"),
    ("--seed", "18446744073709551621", "must fit in 64 unsigned bits"),
    ("--samples", "0", "samples must be >= 1"),
], ids=["negative-seed", "seed-above-64-bits", "zero-samples"])
def test_main_validates_overrides(tmp_path, capsys, flag, value, message):
    cfg = _write(tmp_path, SMALL_RUN)
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, key", [
    ("box_length = inf", "box_length"),
    ("t_final = inf", "t_final"),
    ("field.gaussian_mean = nan", "field.gaussian_mean"),
    ("field.sigmas = 0.5,inf", "field.sigmas"),
    ("field.base = gaussian_bump(nan, 1.5)", "field.base"),
    ("beta = nan", "beta"),
])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, line, key):
    cfg = _write(tmp_path, MINIMAL + line + "\n")
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert f"key '{key}': expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    pytest.param("beta = 0", "beta must be positive, got 0.0", id="beta = 0"),
    pytest.param("beta = -1", "beta must be positive, got -1.0", id="beta = -1"),
    # an observable of norm 0 makes the auto threshold 0
    pytest.param("observable.kind = site_multiplier\nobservable.amplitude = 0.0",
                 "beta must be positive, got 0.0 (auto: half the observable norm 0.0)",
                 id="auto-with-zero-norm"),
])
def test_main_rejects_non_positive_beta(tmp_path, capsys, line, message):
    cfg = _write(tmp_path, MINIMAL + line + "\n")
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_main_stops_a_non_finite_field_before_any_hartree_step(tmp_path, capsys,
                                                                monkeypatch):
    calls = []
    monkeypatch.setattr(mflab.hartree, "hartree_step", lambda *args: calls.append(1))
    cfg = _write(tmp_path, MINIMAL + "field.gaussian_mean = 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sample 0 (seed {mix_seed(20240817, 0)}): sampled field is not finite "
        "(max |v| = inf)"]
    assert calls == []


@pytest.mark.parametrize("line, message", [
    ("dt = 0", "dt must be positive"),
    ("t_final = -1", "t_final must be finite and nonnegative"),
    # t_final / dt beyond the step cap, finite and infinite: neither may hang
    ("dt = 1e-300", r"^dt = 1e-300 needs t_final / dt = 4\.9+5e\+299 steps, beyond"),
    ("dt = 1e-320", r"^dt = 1e-320 needs t_final / dt = inf steps, beyond the cap"),
])
def test_time_grid_is_checked_by_the_plan(tmp_path, line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(_write(tmp_path, MINIMAL + line + "\n"))


@pytest.mark.parametrize("line, message", [
    ("particle_counts = 2,30", "Fock sector for N=30, M=8 (d=1) has dimension "
                               "10295472, exceeding the cap 200000"),
    ("init.width = 0", "cannot normalize a state of norm nan"),
])
def test_main_rejects_a_plan_it_cannot_run_before_any_work(tmp_path, capsys, line,
                                                           message):
    cfg = _write(tmp_path, MINIMAL + line + "\n")
    out = tmp_path / "cli-out"
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("line", ["field.base = gaussian_bump(1e10, 1.5)",
                                  "field.gaussian_mean = 1e308"])
def test_main_fails_fast_on_a_field_beyond_the_propagation_cap(tmp_path, capsys, line):
    cfg = _write(tmp_path, MINIMAL + "samples = 2\n" + line + "\n")
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 10
    last = capsys.readouterr().err.splitlines()[-1]  # numpy may warn before it
    assert last.startswith(f"error: sample 0 (seed {mix_seed(20240817, 0)}): ")


def test_unknown_override_key_rejected(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config(cfg, {"bogus": "1"})


def test_main_reports_config_errors(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "particle_counts = 3,1\n")
    status = main(["--config", str(cfg)])
    assert status == 2
    assert "strictly ascending" in capsys.readouterr().err


def test_main_rejects_observable_order_above_smallest_count(tmp_path, capsys):
    cfg = _write(tmp_path, SMALL_RUN + "observable.p = 2\n")  # particle_counts = 1,2
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "observable.p = 2 exceeds the smallest particle count 1" in err
    assert "sample" not in err
    assert not out.exists()


def _child_env():
    src = str(Path(mflab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_main_rejects_an_oversized_kernel_before_allocating_it(tmp_path):
    # 16 sites and p = 4 pass every other check (Fock dimension 3,876), but
    # the kernel would be 65,536 x 65,536 (64 GiB). The run is a child with a
    # 2 GiB address space, so a missing check ends in a MemoryError there.
    cfg = _write(tmp_path, "dimension = 2\nsites = 4\nbox_length = 8.0\n"
                           "particle_counts = 4\nsamples = 1\nobservable.p = 4\n")
    out = tmp_path / "cli-out"
    limit = 2 ** 31
    done = subprocess.run(
        [sys.executable, "-m", "mflab.cli", "--config", str(cfg), "--out-dir", str(out)],
        env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "error: a 4-particle kernel needs sites^p = 16^4 rows, above the cap of 4,096"]
    assert not out.exists()


def test_cli_import_leaves_unused_scipy_modules_unloaded():
    # importing mflab.cli is part of every run's wall time
    unused = ("scipy.special", "scipy.linalg", "scipy.sparse.linalg", "scipy.fft")
    code = ("import sys, mflab.cli; "
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_constant_field_report_shows_exactness(tmp_path):
    cfg = _write(tmp_path, """\
dimension = 1
sites = 8
t_final = 0.25
particle_counts = 1,2,3
samples = 2
field.base = zero
field.gaussian_mean = 0.7
""")
    plan, options = parse_config(cfg)
    options.output_dir = str(tmp_path / "out")
    assert run_experiment(plan, options) == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    for line in lines:
        mean_y = float(line.split(",")[3])
        assert mean_y < 1e-8


def _rows(mean_ys):
    return [mflab.SummaryRow(n=n, mean_x_manybody=0.0, mean_x_hartree=0.0,
                             mean_y=y, ci95_y=0.0, samples=4)
            for n, y in enumerate(mean_ys, start=1)]


def test_loglog_slope_fits_only_gaps_above_roundoff():
    # configs/plane_wave.cfg at seed 20240817: the N = 1 gap is roundoff
    rows = _rows([1.0647038806155251e-13, 0.015761190341077258,
                  0.013813865997565011, 0.011600108190935876])
    slope = mflab.cli.loglog_slope(rows)
    assert f"{slope:+.3f}" == "-0.435"
    assert slope == mflab.cli.loglog_slope(rows[1:])
    # configs/constant.cfg: every gap is roundoff, so there is no rate to fit
    rows = _rows([4.8405723873656825e-14, 4.9071857688431919e-14,
                  4.7961634663806763e-14, 4.9515946898281982e-14])
    assert mflab.cli.loglog_slope(rows) is None
    assert mflab.cli.loglog_slope(_rows([1e-12, 2.8e-13])) is None
