import gc
import math
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc
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


def _minimal_with(lines: str) -> str:
    """MINIMAL plus lines; a key that lines sets replaces MINIMAL's."""
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    kept = [line for line in MINIMAL.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + [lines]) + "\n"


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


def test_main_reports_a_config_that_is_not_utf8(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"sites = 8\n\xff\xfe bad\n")
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {cfg}: not UTF-8 text (invalid start byte at byte 10)"]
    assert not out.exists()


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
    result = run_ensemble(plan)
    results = {(i, n): (result.x_manybody[k, i], result.x_hartree[i], result.y[k, i])
               for i in range(len(result.seeds))
               for k, n in enumerate(result.counts)}
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


def test_run_reproduces_from_its_config_resolved(tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["--config", str(_write(tmp_path, SMALL_RUN)), "--out-dir", str(first)]) == 0
    assert main(["--config", str(first / "config.resolved"), "--out-dir", str(again)]) == 0
    for name in ("samples.csv", "summary.csv", "report.txt"):
        assert (first / name).read_bytes() == (again / name).read_bytes()


@pytest.mark.parametrize("line", ["init.width = 1e200",
                                  "field.base = gaussian_bump(1.0, 1e200)"])
def test_main_runs_a_gaussian_whose_width_squared_overflows(tmp_path, line):
    cfg = _write(tmp_path, MINIMAL + "samples = 2\n" + line + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


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


def test_outputs_get_the_mode_a_plain_open_gives_under_the_umask(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    for umask, mode in [(0o022, 0o644), (0o077, 0o600)]:
        out = tmp_path / f"out-{umask:o}"
        old = os.umask(umask)
        try:
            assert main(["--config", str(cfg), "--out-dir", str(out)]) == 0
        finally:
            os.umask(old)
        for name in ("config.resolved", "samples.csv", "summary.csv", "report.txt"):
            assert (out / name).stat().st_mode & 0o777 == mode, (umask, name)


def test_outputs_get_their_mode_without_the_umask_being_read(tmp_path, monkeypatch):
    # the kernel applies the umask when open(.., "x") creates each output
    def no_umask(mask):
        raise AssertionError("os.umask called")

    cfg = _write(tmp_path, SMALL_RUN)
    set_umask = os.umask
    old = set_umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", no_umask)
        assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        (tmp_path / "plain").write_text("")
    finally:
        set_umask(old)
    mode = (tmp_path / "plain").stat().st_mode & 0o777
    assert mode == 0o640
    for name in ("config.resolved", "samples.csv", "summary.csv", "report.txt"):
        assert (tmp_path / "out" / name).stat().st_mode & 0o777 == mode, name


def test_a_failed_rename_leaves_no_temporary_file(tmp_path, monkeypatch, capsys):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    cfg = _write(tmp_path, SMALL_RUN)
    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "rename refused" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


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
    # the N = 30 block and its gathers, counted before the initial state is built
    ("particle_counts = 2,30", "the plan would hold about 2.17 GiB, above the cap of "
                               "1 GiB; the largest term is the sectors, 1.63 GiB"),
    ("init.width = 0", "cannot normalize a state of norm nan"),
    # r >= N (max - min of the dispersion) / 2 = 12 at N = 6 for every field
    ("t_final = 2000.0", "propagation of N=6 to t = 2000.0 needs r*t >= 24000.0 "
                         "for every field, beyond the cap 10000.0"),
    # spacings whose powers of h overflow or leave the normal range
    ("box_length = 1e160", "box length 1e+160 on 8 sites gives spacing h = 1.25e+159, "
                           "outside [2^-40, 2^40]"),
    ("dimension = 3\nbox_length = 1e110", "box length 1e+110 on 8 sites gives spacing "
                                          "h = 1.25e+109, outside [2^-40, 2^40]"),
    ("box_length = 1e-160", "box length 1e-160 on 8 sites gives spacing h = 1.25e-161, "
                            "outside [2^-40, 2^40]"),
    # sqrt(N! / prod n_x!) of the lift at n = (1500, 1500) is e^1037.61, beyond a double
    ("sites = 2\nparticle_counts = 3000\nsamples = 1\nt_final = 0.05",
     "the product state of N=3000 on 2 sites has a coefficient prefactor of e^1037.61, "
     "beyond the largest double"),
    # np.std of 64 gaps of up to 2e200 would sum squares beyond the largest double
    ("observable.kind = site_multiplier\nobservable.amplitude = 1e200",
     "observable norm 1e+200: samples * (2 norm)^2 overflows"),
])
def test_main_rejects_a_plan_it_cannot_run_before_any_work(tmp_path, capsys, line,
                                                           message):
    cfg = _write(tmp_path, _minimal_with(line))
    out = tmp_path / "cli-out"
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "t_final = 1e-308",  # below r*t ~ 1e-306 Miller's first step overflows
    # r = 7.7e-4 at N = 6 on this box, so r*t rounds to 0
    "box_length = 1000\nt_final = 5e-324\ndt = 5e-324",
], ids=["subnormal", "zero"])
def test_main_runs_a_time_where_r_t_is_subnormal(tmp_path, lines):
    cfg = _write(tmp_path, MINIMAL + "samples = 2\n" + lines + "\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[3]) for row in rows] == pytest.approx([0, 0, 0], abs=1e-14)


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


# -10**400 overflows a float, so the memory rule must not form a power of it
@pytest.mark.parametrize("p", [0, -1, -10 ** 400], ids=["0", "-1", "-10**400"])
def test_main_rejects_an_observable_order_below_one(tmp_path, capsys, p):
    cfg = _write(tmp_path, MINIMAL + f"observable.p = {p}\n")
    out = tmp_path / "cli-out"
    assert main(["--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: observable particle count must be >= 1, got {p}"]
    assert not out.exists()


def _child_env():
    src = str(Path(mflab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _run_child(tmp_path, cfg, *flags):
    """mflab on cfg in a child with a 2 GiB address space and one BLAS thread, so
    that a missing memory check ends in a MemoryError there, not in a stall."""
    limit = 2 ** 31
    return subprocess.run(
        [sys.executable, "-m", "mflab.cli", "--config", str(cfg), *flags,
         "--out-dir", str(tmp_path / "cli-out")],
        env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_main_rejects_a_huge_grid_before_allocating_it(tmp_path):
    # 10^15 sites: its initial state alone would take 14.2 PiB, and no sector,
    # sample or per-site array is made before the plan is refused
    done = _run_child(tmp_path, _write(tmp_path, "dimension = 3\nsites = 100000\n"))
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert re.match(r"^error: the plan would hold about \S+ GiB, above the cap of 1 GiB; "
                    r"the largest term is building N=6, \S+ GiB$", done.stderr)
    assert not (tmp_path / "cli-out").exists()


def test_main_runs_a_four_particle_observable_on_sixteen_sites(tmp_path):
    # sites^p = 65,536 rows, which no array has: the four gathers of the N = 4
    # sector and one column of 16 sites are all an observable of order 4 holds
    cfg = _write(tmp_path, "dimension = 2\nsites = 4\nbox_length = 8.0\n"
                           "particle_counts = 4\nsamples = 1\nobservable.p = 4\n")
    done = _run_child(tmp_path, cfg)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "cli-out" / "config.resolved").exists()


def test_main_rejects_a_sample_count_beyond_the_memory_cap(tmp_path):
    # 10^12 seeds alone would take 44 TB; the check runs before the output
    # directory is made
    cfg = Path(__file__).resolve().parents[1] / "configs" / "convergence.cfg"
    done = _run_child(tmp_path, cfg, "--samples", "1000000000000")
    assert done.returncode == 2, done.stderr
    assert done.stderr.splitlines() == [
        "error: the plan would hold about 1.94e+06 GiB, above the cap of 1 GiB; the "
        "largest term is the samples, 1.94e+06 GiB"]
    assert not (tmp_path / "cli-out").exists()


@pytest.mark.parametrize("config", ["configs/site_multiplier.cfg",
                                    "perfbench/workloads/long_time.cfg",
                                    "configs/wide_p2.cfg", "configs/condensate_p4.cfg"],
                         ids=["p1", "p2", "p2-64", "p4"])
def test_outputs_are_byte_identical_at_one_and_two_blas_threads(tmp_path, config):
    # a 101-site observable with 101 spectral pairs, a p = 2 observable whose
    # X_N was once a BLAS Gram that two threads summed in another order, a
    # 64-site p = 2 projector whose factors were once an eigh that threads
    # split, and a p = 4 projector, whose X_N takes four gather steps
    cfg = Path(__file__).resolve().parents[1] / config
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "mflab.cli", "--config", str(cfg),
                        "--out-dir", str(tmp_path / threads)],
                       env=dict(_child_env(), OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, check=True)
    for name in ("samples.csv", "summary.csv", "report.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_every_shipped_plan_is_built_without_an_eigensolve(monkeypatch):
    # the stock observables give their factors in closed form; a dense 4,096-row
    # kernel and its eigh once took wide_p2's plan 17 s and 1 GiB
    def no_eigh(*args, **kwargs):
        raise AssertionError("a shipped plan ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    root = Path(__file__).resolve().parents[1]
    configs = [*root.glob("configs/*.cfg"), *root.glob("perfbench/workloads/*.cfg")]
    assert root / "configs" / "wide_p2.cfg" in configs
    for cfg in configs:
        tracemalloc.start()
        try:
            plan, _ = parse_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if cfg.name == "wide_p2.cfg":
            assert (plan.observable.p, plan.grid.n_sites) == (2, 64)
            assert peak < 8 * 2 ** 20


def test_cli_import_leaves_unused_scipy_modules_unloaded():
    # importing mflab.cli is part of every run's wall time
    unused = ("scipy.special", "scipy.linalg", "scipy.sparse.linalg", "scipy.fft")
    code = ("import sys, mflab.cli; "
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_outputs_are_written_without_the_locale_encoding(tmp_path):
    # the config is read as UTF-8 and config.resolved repeats its values, so
    # the outputs must not be written in whatever encoding the locale names
    cfg = Path(__file__).resolve().parents[1] / "perfbench/workloads/smoke.cfg"
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "mflab.cli", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 0 and done.stderr == "", done.stderr


def test_main_freezes_the_heap_at_exit_once_however_often_it_runs(tmp_path):
    # atexit handlers run last in, first out: the reporter, registered before
    # main, runs after main's hook and before the finalization collections.
    # gc.freeze is swapped for a counter, so each registered hook is counted.
    cfg = _write(tmp_path, SMALL_RUN)
    runs = [["--config", str(cfg), "--out-dir", str(tmp_path / out)] for out in "ab"]
    code = ("import atexit, gc, sys, mflab.cli\n"
            "calls, freeze = [], gc.freeze\n"
            "gc.freeze = lambda: (calls.append(1), freeze())\n"
            "atexit.register(lambda: print(len(calls), gc.get_freeze_count()))\n"
            f"sys.exit(max(mflab.cli.main(argv) for argv in {runs!r}))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    hooks, frozen = map(int, done.stdout.splitlines()[-1].split())
    assert hooks == 1 and frozen > 0


@pytest.mark.parametrize("call", ["", "run_ensemble(parse_config(sys.argv[1])[0])"],
                         ids=["import", "run_ensemble"])
def test_library_use_leaves_the_garbage_collector_alone(tmp_path, call):
    # the reporter is registered first, so it runs after any exit hook mflab adds
    cfg = _write(tmp_path, SMALL_RUN)
    code = ("import atexit, gc, sys\n"
            "before = (gc.isenabled(), gc.get_threshold())\n"
            "atexit.register(lambda: print(gc.get_freeze_count(),\n"
            "                              (gc.isenabled(), gc.get_threshold()) == before))\n"
            "import mflab.cli\n"
            "from mflab.config import parse_config\n"
            "from mflab.ensemble import run_ensemble\n"
            f"{call}\n")
    done = subprocess.run([sys.executable, "-c", code, str(cfg)], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["0", "True"]


def test_main_leaves_in_process_collection_alone(tmp_path):
    cfg = _write(tmp_path, SMALL_RUN)
    enabled = gc.isenabled()
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == 0 and gc.isenabled() == enabled


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
    slope = mflab.cli.loglog_slope(rows, 1e-12)
    assert f"{slope:+.3f}" == "-0.435"
    assert slope == mflab.cli.loglog_slope(rows[1:], 1e-12)
    # configs/constant.cfg: every gap is roundoff, so there is no rate to fit
    rows = _rows([4.8405723873656825e-14, 4.9071857688431919e-14,
                  4.7961634663806763e-14, 4.9515946898281982e-14])
    assert mflab.cli.loglog_slope(rows, 1e-12) is None
    assert mflab.cli.loglog_slope(_rows([1e-12, 2.8e-13]), 1e-12) is None


# configs/site_multiplier.cfg on 16 sites: a constant field, so every gap is roundoff
SITE_MULTIPLIER = """\
dimension = 1
sites = 16
box_length = 16.0
t_final = 0.1
particle_counts = 1,2
samples = 2
field.gaussian_mean = 0.5
observable.kind = site_multiplier
"""


def _columns(out: Path, *names: str) -> np.ndarray:
    """The named columns of samples.csv, one row per name."""
    header, *lines = (out / "samples.csv").read_text().splitlines()
    index = [header.split(",").index(name) for name in names]
    return np.array([[float(line.split(",")[i]) for line in lines] for i in index])


@pytest.mark.parametrize("amplitude", [1e5, 1e8, 1e12])
def test_x_and_report_are_invariant_to_the_observable_scale(tmp_path, amplitude):
    outs = {}
    for a in (1.0, amplitude):
        cfg = _write(tmp_path, SITE_MULTIPLIER + f"observable.amplitude = {a!r}\n")
        outs[a] = tmp_path / f"out-{a!r}"
        assert main(["--config", str(cfg), "--out-dir", str(outs[a])]) == 0
    xs = _columns(outs[amplitude], "x_hartree", "x_manybody")
    assert xs == pytest.approx(amplitude * _columns(outs[1.0], "x_hartree", "x_manybody"),
                               rel=1e-12)
    for out in outs.values():
        assert (out / "report.txt").read_text().splitlines()[-1] == \
            "log-log slope of mean_Y_N vs N: n/a (informational)"


# a Gaussian bump with one random mode; at 1e5 these seeds gave gaps whose
# roundoff exceeded an absolute slack of 1e-12 in the triangle check
@pytest.mark.parametrize("amplitude, seed", [(1e5, 2), (1e5, 3), (1e5, 4), (1e150, 20240817)])
def test_a_large_observable_runs_with_finite_statistics(tmp_path, amplitude, seed):
    cfg = _write(tmp_path, _minimal_with(
        "particle_counts = 2,3\nsamples = 2\nfield.base = gaussian_bump(1.0, 1.5)\n"
        f"field.sigmas = 0.5\nobservable.kind = site_multiplier\n"
        f"observable.amplitude = {amplitude!r}"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--config", str(cfg), "--out-dir", str(out), "--seed", str(seed)]) == 0
    rows = (out / "summary.csv").read_text().splitlines()[1:]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
