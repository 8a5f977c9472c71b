import gc
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mflab.ensemble
import mflab.hartree
from mflab.config import parse_config
from mflab.ensemble import (MEMORY_CAP, EnsembleResult, ExperimentPlan, check_memory,
                            estimate, run_ensemble, tail_diagnostic)
from mflab.errors import ConsistencyError, DimensionError, DomainError, ResourceError
from mflab.grid import (LatticeGrid, WaveFunction, gaussian_packet,
                        lattice_dispersion, normalize, plane_wave, uniform_state)
from mflab.hartree import HartreeRunParams
from mflab.manybody import build_fock_basis
from mflab.observables import condensate_projector, site_multiplier
from mflab.random_field import FieldSpec, mix_seed


GRID = LatticeGrid(1, 8, 8.0)
PHI = gaussian_packet(GRID)
OBS = condensate_projector(PHI)


def _plan(field_spec, counts=(2, 3), samples=4, seed=20240817, t=0.25):
    return ExperimentPlan(grid=GRID, field_spec=field_spec, initial_state=PHI,
                          observable=OBS, t_final=t, dt=t / 128,
                          particle_counts=counts, samples=samples,
                          base_seed=seed)


RANDOM_SPEC = FieldSpec(base="gaussian_bump(1.0, 1.5)",
                        mode_stddevs=(0.5, 0.3, 0.1))


def test_deterministic_field_gives_identical_samples():
    plan = _plan(FieldSpec(base="cosine(0.8, 1)"), samples=3)
    result = run_ensemble(plan)
    assert np.all(result.x_hartree == result.x_hartree[0])
    assert np.all(result.x_manybody == result.x_manybody[:, :1])
    rows = estimate(result)
    assert all(row.ci95_y == 0.0 for row in rows)


def test_constant_field_gap_vanishes():
    plan = _plan(FieldSpec(base="zero", gaussian_mean=0.7), counts=(1, 2, 3),
                 samples=2)
    assert np.all(run_ensemble(plan).y < 1e-8)


def test_free_single_particle_matches_closed_form():
    plan = _plan(FieldSpec(base="zero"), counts=(1,), samples=1, t=0.5)
    result = run_ensemble(plan)
    # free overlap via Fourier phases on the lattice
    spec = np.fft.fft(PHI.amplitudes)
    lam = lattice_dispersion(GRID).ravel()
    free = np.fft.ifft(spec * np.exp(-1j * 0.5 * lam))
    expected = abs(GRID.cell_volume
                   * np.vdot(WaveFunction(GRID, free).amplitudes, PHI.amplitudes)) ** 2
    assert result.x_manybody[0, 0] == pytest.approx(expected, abs=1e-9)
    assert result.x_hartree[0] == pytest.approx(expected, abs=1e-9)
    assert result.y[0, 0] < 1e-8


def test_sample_seeds_derive_from_base_seed():
    plan = _plan(RANDOM_SPEC, samples=3)
    result = run_ensemble(plan)
    for i in range(3):
        assert result.seeds[i] == mix_seed(plan.base_seed, i)


# the N = 30 block holds 41 MB of occupations and 801 MB of gathers
OVER_CAP_SECTORS = (r"^the plan would hold about 2\.1\d GiB, above the cap of 1 GiB; "
                    r"the largest term is the sectors, 1\.6\d GiB$")


def test_over_cap_sector_fails_before_any_hartree_work(monkeypatch):
    def no_hartree(*args, **kwargs):
        raise AssertionError("Hartree ran before the sectors were built")

    monkeypatch.setattr(mflab.ensemble, "evolve_hartree_batch", no_hartree)
    with pytest.raises(ResourceError, match=OVER_CAP_SECTORS):
        _plan(RANDOM_SPEC, counts=(2, 30))  # N=30 on 8 sites: dim 10,295,472
    # the patched name is the one run_ensemble calls, so the check above bites
    with pytest.raises(AssertionError, match="Hartree ran"):
        run_ensemble(_plan(RANDOM_SPEC))


def test_over_cap_sector_fails_before_any_sector_is_built(monkeypatch):
    built = []
    build = mflab.ensemble.build_fock_basis

    def recording_build(n, *args, **kwargs):
        built.append(n)
        return build(n, *args, **kwargs)

    monkeypatch.setattr(mflab.ensemble, "build_fock_basis", recording_build)
    with pytest.raises(ResourceError, match=OVER_CAP_SECTORS):
        _plan(RANDOM_SPEC, counts=(2, 3, 30))
    assert built == []
    # the patched name is the one run_ensemble calls, once per N
    run_ensemble(_plan(RANDOM_SPEC, counts=(2, 3), samples=1))
    assert built == [2, 3]


def test_plan_caps_the_memory_its_samples_hold(monkeypatch):
    # 8 sites and 2 N's: 1032 + 128 * 8 + 8 * 2 = 2,072 bytes a sample
    one = check_memory(GRID, (2, 3), 1, 1, True, 1)
    assert check_memory(GRID, (2, 3), 1, 2, True, 1) - one == 2_072
    fits = int((MEMORY_CAP - one) // 2_072) + 1
    assert _plan(RANDOM_SPEC, samples=fits).samples == fits

    def no_check(got, want, what):
        if what == "the observable":
            raise AssertionError("the observable was read before the memory cap")

    monkeypatch.setattr(mflab.ensemble, "check_grid", no_check)
    with pytest.raises(ResourceError, match=r"^the plan would hold about 1\.93e\+06 GiB, "
                                            r"above the cap of 1 GiB; the largest term is "
                                            r"the samples, 1\.93e\+06 GiB$"):
        _plan(RANDOM_SPEC, samples=10 ** 12)
    with pytest.raises(ResourceError, match="the largest term is the samples"):
        _plan(RANDOM_SPEC, samples=fits + 1)


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/workloads/*.cfg"))
# sectors up to 170,544 states, p = 2 and p = 4, and the N = 16 block on 8 sites
SHAPES = {
    "d1-m64-n3": "dimension = 1\nsites = 64\nparticle_counts = 3",
    "d3-m3-n5": "dimension = 3\nsites = 3\nparticle_counts = 5",
    "d1-m16-n7-p2": "dimension = 1\nsites = 16\nparticle_counts = 7\nobservable.p = 2",
    "d1-m8-n14-p2": "dimension = 1\nsites = 8\nparticle_counts = 14\nobservable.p = 2",
    "d2-m4-n4-p4": "dimension = 2\nsites = 4\nparticle_counts = 4\nobservable.p = 4",
    "d1-m8-n16": "dimension = 1\nsites = 8\nparticle_counts = 16",
}


@pytest.mark.parametrize("config", [*SHIPPED, *SHAPES.values()],
                         ids=[f"{c.parent.name}/{c.stem}" for c in SHIPPED] + list(SHAPES))
def test_memory_estimate_is_within_twice_the_measured_peak(tmp_path, config):
    # the peak from before parse_config to the return of run_ensemble
    if isinstance(config, str):
        (tmp_path / "shape.cfg").write_text(config + "\nsamples = 2\nt_final = 0.05\n")
        config = tmp_path / "shape.cfg"
    run_ensemble(parse_config(SHIPPED[-1])[0])  # first-call allocations are not the plan's
    gc.collect()
    tracemalloc.start()
    try:
        plan = parse_config(config)[0]
        run_ensemble(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    estimate = check_memory(plan.grid, plan.particle_counts, plan.observable.p,
                            plan.samples, plan.halved, len(plan.observable.mu))
    assert estimate / 2 <= peak <= estimate


def test_memory_rule_admits_the_widest_one_particle_plan():
    # d = 3, M = 16, N = 1 with site_multiplier: 2,744 columns, 171.5 MiB of U,
    # a 256 MiB peak in interaction_matrix; 436 MiB peak measured for a run
    total = check_memory(LatticeGrid(3, 16, 16.0), (1,), 1, 1, True, 2_744)
    assert 436 * 2 ** 20 <= total <= MEMORY_CAP


def test_plan_refuses_an_n_to_the_p_beyond_the_range_of_a_double():
    g = LatticeGrid(1, 2, 2.0)
    phi = uniform_state(g)

    def plan(p):
        return ExperimentPlan(grid=g, field_spec=FieldSpec(base="cosine(0.5, 1)"),
                              initial_state=phi, observable=condensate_projector(phi, p),
                              t_final=0.01, dt=0.01, particle_counts=(300,), samples=1,
                              base_seed=1)

    # 300^100 is about 2^823: X_N is N^-p times a finite sum
    x_n = run_ensemble(plan(100)).x_manybody[0, 0]
    assert np.isfinite(x_n) and 0 < x_n < 1
    # 300^130 is about 2^1070, beyond the largest double
    with pytest.raises(DomainError, match=r"^N\^p = 300\^130 is beyond 2\^1000$"):
        plan(130)


def test_run_sample_alone_equals_ensemble_rows():
    plan = _plan(RANDOM_SPEC, samples=5)

    def values(r, i):
        return np.array([r.x_hartree[i], *r.x_manybody[:, i], *r.y[:, i]])

    def assert_same(table, other, i):
        assert table.seeds[i] == other.seeds[i]
        assert np.array_equal(values(table, i), values(other, i))

    first = run_ensemble(plan)
    second = run_ensemble(plan)
    larger = run_ensemble(_plan(RANDOM_SPEC, samples=7))
    for i in range(plan.samples):
        assert_same(first, second, i)
        assert_same(first, larger, i)
    # a sample does not depend on the samples batched with it, down to a batch of one
    for table in (run_ensemble(_plan(RANDOM_SPEC, samples=2)),
                  run_ensemble(_plan(RANDOM_SPEC, samples=1))):
        for i in range(len(table.seeds)):
            assert_same(first, table, i)


def test_hartree_norm_failure_names_sample_and_seed(monkeypatch):
    step = mflab.hartree.hartree_step

    def leaky_step(psi, *args):
        out = step(psi, *args)
        out[-1] *= 1.0 + 1e-9  # the last field of the batch drifts
        return out

    monkeypatch.setattr(mflab.hartree, "hartree_step", leaky_step)
    plan = _plan(RANDOM_SPEC, samples=4)
    seed = mix_seed(plan.base_seed, 3)
    with pytest.raises(DomainError, match=rf"^sample 3 \(seed {seed}\): Hartree norm"):
        run_ensemble(plan)
    seed = mix_seed(plan.base_seed, 1)
    with pytest.raises(DomainError, match=rf"^sample 1 \(seed {seed}\): Hartree norm"):
        run_ensemble(_plan(RANDOM_SPEC, samples=2))

    def nan_step(psi, *args):
        out = step(psi, *args)
        out[-1] = np.nan  # a NaN norm must fail the exit check, not pass it
        return out

    monkeypatch.setattr(mflab.hartree, "hartree_step", nan_step)
    seed = mix_seed(plan.base_seed, 3)
    with pytest.raises(DomainError, match=rf"^sample 3 \(seed {seed}\): Hartree norm"):
        run_ensemble(plan)


@pytest.mark.parametrize("name", ["hartree_expectation", "manybody_expectation"])
@pytest.mark.parametrize("excess", [1.0, np.nan])
def test_expectation_beyond_the_observable_norm_names_the_sample(monkeypatch, name, excess):
    plan = _plan(RANDOM_SPEC, samples=2)
    monkeypatch.setattr(mflab.ensemble, name, lambda *args: plan.observable_norm + excess)
    seed = mix_seed(plan.base_seed, 0)
    with pytest.raises(ConsistencyError, match=rf"^sample 0 \(seed {seed}\): \|X(_N)?\| "
                                               r"= .* exceeds the observable norm"):
        run_ensemble(plan)


def test_zero_observable_has_no_spectral_pairs_and_x_n_exactly_zero():
    plan = ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC, initial_state=PHI,
                          observable=site_multiplier(GRID, amplitude=0.0), t_final=0.25,
                          dt=0.25 / 128, particle_counts=(2, 3), samples=2, base_seed=5)
    mu, u = plan.observable.mu, plan.observable.u
    assert mu.shape == (0,) and u.shape == (GRID.n_sites, 0)
    assert plan.observable_norm == 0.0
    result = run_ensemble(plan)
    assert np.array_equal(result.x_manybody, np.zeros((2, 2)))
    assert np.array_equal(result.x_hartree, np.zeros(2))


def _plan_from(phi):
    return ExperimentPlan(grid=phi.grid, field_spec=FieldSpec(), initial_state=phi,
                          observable=condensate_projector(phi), t_final=0.25, dt=0.25 / 128,
                          particle_counts=(2, 3), samples=2, base_seed=1)


def test_plan_mirrors_its_sectors_only_for_an_initial_state_even_bit_for_bit():
    assert _plan(FieldSpec()).halved is True  # the even packet on M = 8
    nudged = normalize(WaveFunction(GRID, PHI.amplitudes + 1e-9 * (np.arange(8) == 1)))
    # at M = 2 the inversion fixes every site, so the block would be the whole sector
    for phi in (plane_wave(GRID), nudged, gaussian_packet(LatticeGrid(1, 2, 2.0))):
        assert _plan_from(phi).halved is False


def test_the_plan_passes_its_one_bool_to_the_memory_rule_and_every_sector(monkeypatch):
    calls = []

    def build(n, grid, p, halved):
        basis = build_fock_basis(n, grid, p, halved)
        calls.append(("build_fock_basis", basis.halved))  # the sector keeps the bool
        return basis

    monkeypatch.setattr(mflab.ensemble, "check_memory",
                        lambda *args: calls.append(("check_memory", args[4])))
    monkeypatch.setattr(mflab.ensemble, "build_fock_basis", build)
    for phi in (PHI, plane_wave(GRID)):
        calls.clear()
        plan = _plan_from(phi)
        run_ensemble(plan)
        assert calls == [("check_memory", plan.halved)] + [("build_fock_basis", plan.halved)] * 2


def test_a_run_on_mirror_even_blocks_matches_one_on_whole_sectors(monkeypatch):
    plan = _plan(RANDOM_SPEC, counts=(2, 4, 6), samples=3)
    assert plan.halved
    blocks = run_ensemble(plan)
    monkeypatch.setattr(mflab.ensemble, "build_fock_basis",
                        lambda n, grid, p, halved: build_fock_basis(n, grid, p, False))
    whole = run_ensemble(plan)
    assert np.array_equal(blocks.x_hartree, whole.x_hartree)
    np.testing.assert_allclose(blocks.x_manybody, whole.x_manybody, rtol=0, atol=1e-14)


def test_plan_rejects_an_initial_state_on_another_grid():
    # as many sites as the plan's grid, but h = 0.25: caught before any sector is built
    with pytest.raises(DimensionError, match=r"^the initial state lives on LatticeGrid\(d=1, "
                                             r"m=8, length=2\.0\), not on LatticeGrid\("):
        ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC,
                       initial_state=gaussian_packet(LatticeGrid(1, 8, 2.0)),
                       observable=OBS, t_final=0.25, dt=0.25 / 128, particle_counts=(2,),
                       samples=1, base_seed=1)


def test_plan_builds_and_checks_its_time_grid_once():
    with pytest.raises(DomainError, match="dt must be positive"):
        ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC, initial_state=PHI,
                       observable=OBS, t_final=0.25, dt=0, particle_counts=(2,),
                       samples=1, base_seed=1)
    plan = _plan(RANDOM_SPEC)
    assert plan.hartree_params == HartreeRunParams(plan.t_final, plan.dt)


@pytest.mark.parametrize("t_final", [np.inf, np.nan, -1.0])
def test_plan_checks_the_time_before_the_propagation_cap_reads_it(t_final):
    # a config cannot give inf (parse_finite refuses it), but a library caller can
    with pytest.raises(DomainError, match=r"^t_final must be finite and nonnegative, got "):
        ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC, initial_state=PHI,
                       observable=OBS, t_final=t_final, dt=0.01, particle_counts=(2,),
                       samples=1, base_seed=1)


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_plan_rejects_an_initial_state_that_is_not_a_unit_vector(scale):
    # caught at construction, not in the lift after the first sector is built
    with pytest.raises(DomainError, match=r"^the plan requires a unit state, norm = "):
        ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC,
                       initial_state=WaveFunction(GRID, scale * PHI.amplitudes),
                       observable=OBS, t_final=0.25, dt=0.25 / 128, particle_counts=(2,),
                       samples=1, base_seed=1)


@pytest.mark.parametrize("counts, samples", [((2.7, 4.2), 4), ((2.0, 3), 4), ((2, 3), 2.5)])
def test_plan_rejects_counts_that_are_not_integers(counts, samples):
    # neither truncated (2.7 -> 2) nor left to fail in run_ensemble's range()
    with pytest.raises(DomainError, match=r"^particle counts and samples must be integers"):
        _plan(RANDOM_SPEC, counts=counts, samples=samples)


def test_plan_keeps_counts_of_any_integer_type():
    plan = _plan(RANDOM_SPEC, counts=(np.int64(2), np.uint8(3)), samples=np.int32(2))
    assert plan.particle_counts == (2, 3)
    assert all(type(n) is int for n in plan.particle_counts)
    assert run_ensemble(plan).x_manybody.shape == (2, 2)


def test_plan_stores_a_base_seed_of_any_integer_type_as_int():
    # mix_seed's 64-bit products overflow an np.int64 seed
    plan = _plan(RANDOM_SPEC, samples=2, seed=np.int64(5))
    assert type(plan.base_seed) is int
    same = _plan(RANDOM_SPEC, samples=2, seed=5)
    assert run_ensemble(plan).seeds == run_ensemble(same).seeds


@pytest.mark.parametrize("build, message", [
    *(pytest.param(lambda args=args: LatticeGrid(*args), message, id=f"LatticeGrid{args}")
      for args, message in [
          ((0, 8, 1.0), "dimension must be 1, 2 or 3"),
          ((4, 8, 1.0), "dimension must be 1, 2 or 3"),
          ((1, 1, 1.0), "sites per axis must be an integer >= 2"),
          ((1, 8, 0.0), "box length must be positive"),
          ((1, 8, -2.0), "box length must be positive"),
          ((1, 8, 1e160), r"outside \[2\^-40, 2\^40\]"),
          ((3, 8, 1e110), r"outside \[2\^-40, 2\^40\]"),
          ((1, 8, 1e-160), r"outside \[2\^-40, 2\^40\]")]),
    *(pytest.param(lambda seed=seed: _plan(RANDOM_SPEC, seed=seed),
                   "base_seed must fit in 64 unsigned bits", id=f"base_seed={seed}")
      for seed in (1.5, -3, 2 ** 70)),
    pytest.param(lambda: _plan(FieldSpec(mode_stddevs=(0.1,) * (GRID.m // 2))),
                 r"K < M/2 = 4\.0 is required", id="K=M/2"),
])
def test_library_rejects_at_construction_what_the_config_rejects(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_particle_counts_must_ascend():
    with pytest.raises(DomainError):
        _plan(RANDOM_SPEC, counts=(4, 2))
    with pytest.raises(DomainError):
        _plan(RANDOM_SPEC, counts=())


def test_estimate_statistics_against_direct_oracle():
    table = EnsembleResult(counts=(2,), seeds=(1, 2),
                           x_hartree=np.array([0.5, 0.5]),
                           x_manybody=np.array([[0.4, 0.2]]))
    assert table.y[0, 0] == pytest.approx(0.1)
    assert table.y[0, 1] == pytest.approx(0.3)
    rows = estimate(table)
    assert len(rows) == 1
    row = rows[0]
    # direct mean/variance computation
    ys = [0.1, 0.3]
    mean = sum(ys) / 2
    sd = (sum((y - mean) ** 2 for y in ys) / (len(ys) - 1)) ** 0.5
    assert row.mean_y == pytest.approx(mean, abs=1e-15)
    assert row.ci95_y == pytest.approx(1.96 * sd / np.sqrt(2), abs=1e-15)
    assert row.mean_x_manybody == pytest.approx(0.3, abs=1e-15)
    assert row.mean_x_hartree == pytest.approx(0.5, abs=1e-15)


def test_estimate_triangle_inequality():
    plan = _plan(RANDOM_SPEC, samples=6)
    rows = estimate(run_ensemble(plan))
    for row in rows:
        assert abs(row.mean_x_hartree - row.mean_x_manybody) <= row.mean_y + 1e-12


def test_estimate_rejects_empty():
    with pytest.raises(DomainError):
        estimate(EnsembleResult(counts=(2,), seeds=(), x_hartree=np.empty(0),
                                x_manybody=np.empty((1, 0))))


def test_result_table_rejects_a_shape_that_disagrees():
    for x_hartree, x_manybody in [
        (np.zeros(3), np.zeros((2, 2))),  # x_hartree longer than seeds
        (np.zeros((2, 1)), np.zeros((2, 2))),  # x_hartree not one-dimensional
        (np.zeros(2), np.zeros((1, 2))),  # x_manybody short of one N
        (np.zeros(2), np.zeros((2, 3))),  # x_manybody wider than seeds
        (np.zeros(2), np.zeros((2, 2, 1))),
    ]:
        with pytest.raises(DomainError, match=r"shapes \(2,\) and \(2, 2\); got "):
            EnsembleResult(counts=(2, 3), seeds=(7, 8), x_hartree=x_hartree,
                           x_manybody=x_manybody)
    with pytest.raises(DomainError, match=r">= 1 N, >= 1 sample .*; got \(2,\) and \(0, 2\)$"):
        EnsembleResult(counts=(), seeds=(7, 8), x_hartree=np.zeros(2),
                       x_manybody=np.zeros((0, 2)))


def test_pathwise_bound_holds():
    plan = _plan(RANDOM_SPEC, samples=6)
    bound = np.abs(OBS.mu).max()
    result = run_ensemble(plan)
    assert np.all(np.abs(result.x_hartree) <= bound + 1e-12)
    assert np.all(np.abs(result.x_manybody) <= bound + 1e-12)


def test_tail_diagnostic_behaviour():
    plan = _plan(RANDOM_SPEC, samples=6)
    result = run_ensemble(plan)
    bound = np.abs(OBS.mu).max()
    above, h_above = tail_diagnostic(result, 1.1 * bound)
    assert h_above == 0.0
    assert all(v == 0.0 for v in above.values())
    tiny, h_tiny = tail_diagnostic(result, 1e-12)
    assert list(tiny) == list(plan.particle_counts)
    for n, row in zip(tiny, result.x_manybody):
        assert tiny[n] == pytest.approx(np.mean(np.abs(row)), abs=1e-15)
    assert h_tiny == pytest.approx(np.mean(np.abs(result.x_hartree)), abs=1e-15)
    # nonincreasing in beta
    betas = [0.1, 0.5, 0.9, 1.3]
    prev = {n: np.inf for n in tiny}
    for beta in betas:
        cur, _ = tail_diagnostic(result, beta)
        for n in cur:
            assert cur[n] <= prev[n] + 1e-15
        prev = cur
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="beta must be positive"):
            tail_diagnostic(result, bad)


def test_reproducible_across_thread_counts():
    plan = _plan(RANDOM_SPEC, samples=6)
    first = run_ensemble(plan)
    second = run_ensemble(plan)
    assert len(first.seeds) == plan.samples
    assert first.counts == second.counts == plan.particle_counts
    assert first.seeds == second.seeds
    assert np.array_equal(first.x_hartree, second.x_hartree)
    assert np.array_equal(first.x_manybody, second.x_manybody)
    assert np.array_equal(first.y, second.y)


def test_mean_gap_shrinks_with_n():
    plan = _plan(RANDOM_SPEC, counts=(2, 4), samples=8, t=0.5)
    rows = estimate(run_ensemble(plan))
    by_n = {row.n: row.mean_y for row in rows}
    assert by_n[4] < by_n[2]
