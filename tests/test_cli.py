import math

import numpy as np
import pytest

import mflab.cli
from mflab.cli import main, run_experiment
from mflab.config import parse_config
from mflab.errors import ConfigError


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
    assert options.beta is None
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
    path = _write(tmp_path, MINIMAL + "volume = 3\n")
    with pytest.raises(ConfigError, match="unknown key 'volume'"):
        parse_config(path)


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


def test_failed_write_leaves_no_commit_marker(tmp_path, monkeypatch):
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
    with pytest.raises(OSError, match="disk full"):
        run_experiment(plan, options)
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


def test_main_reports_config_errors(tmp_path, capsys):
    cfg = _write(tmp_path, MINIMAL + "particle_counts = 3,1\n")
    status = main(["--config", str(cfg)])
    assert status == 2
    assert "strictly ascending" in capsys.readouterr().err


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
