import numpy as np
import pytest

import mflab.ensemble
import mflab.hartree
from mflab.ensemble import (ExperimentPlan, SampleResult, estimate,
                            run_ensemble, run_sample, tail_diagnostic)
from mflab.errors import ConsistencyError, DomainError, ResourceError
from mflab.grid import WaveFunction, build_grid, gaussian_packet
from mflab.hartree import HartreeRunParams, lattice_dispersion
from mflab.observables import condensate_projector, operator_norm
from mflab.random_field import FieldSpec, mix_seed


GRID = build_grid(1, 8, 8.0)
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
    results = run_ensemble(plan)
    first = results[0]
    for r in results[1:]:
        assert r.x_hartree == first.x_hartree
        assert r.x_manybody == first.x_manybody
    rows = estimate(results)
    assert all(row.ci95_y == 0.0 for row in rows)


def test_constant_field_gap_vanishes():
    plan = _plan(FieldSpec(base="zero", gaussian_mean=0.7), counts=(1, 2, 3),
                 samples=2)
    for r in run_ensemble(plan):
        assert all(y < 1e-8 for y in r.y.values())


def test_free_single_particle_matches_closed_form():
    plan = _plan(FieldSpec(base="zero"), counts=(1,), samples=1, t=0.5)
    result = run_sample(plan, 0)
    # free overlap via Fourier phases on the lattice
    spec = np.fft.fft(PHI.amplitudes)
    lam = lattice_dispersion(GRID).ravel()
    free = np.fft.ifft(spec * np.exp(-1j * 0.5 * lam))
    expected = abs(WaveFunction(GRID, free).inner(PHI)) ** 2
    assert result.x_manybody[1] == pytest.approx(expected, abs=1e-9)
    assert result.x_hartree == pytest.approx(expected, abs=1e-9)
    assert result.y[1] < 1e-8


def test_sample_seeds_derive_from_base_seed():
    plan = _plan(RANDOM_SPEC, samples=3)
    for i in range(3):
        assert run_sample(plan, i).seed == mix_seed(plan.base_seed, i)


def test_sample_index_out_of_range():
    plan = _plan(RANDOM_SPEC, samples=2)
    with pytest.raises(DomainError):
        run_sample(plan, 2)


def test_over_cap_sector_fails_before_any_hartree_work(monkeypatch):
    def no_hartree(*args, **kwargs):
        raise AssertionError("Hartree ran before the sectors were built")

    monkeypatch.setattr(mflab.ensemble, "evolve_hartree_batch", no_hartree)
    with pytest.raises(ResourceError, match=r"N=30, M=8 \(d=1\)"):
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
    with pytest.raises(ResourceError, match=r"N=30, M=8 \(d=1\)"):
        _plan(RANDOM_SPEC, counts=(2, 3, 30))
    assert built == []
    # the patched name is the one run_ensemble calls, once per N
    run_ensemble(_plan(RANDOM_SPEC, counts=(2, 3), samples=1))
    assert built == [2, 3]


def test_run_sample_alone_equals_ensemble_rows():
    plan = _plan(RANDOM_SPEC, samples=5)

    def values(r):
        return np.array([r.x_hartree, *r.x_manybody.values(), *r.y.values()])

    first = run_ensemble(plan)
    second = run_ensemble(plan)
    smaller = run_ensemble(_plan(RANDOM_SPEC, samples=3))
    for i in range(plan.samples):
        alone = run_sample(plan, i)
        for row in (first[i], second[i]) + ((smaller[i],) if i < 3 else ()):
            assert row.seed == alone.seed
            assert np.array_equal(values(row), values(alone))


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
        run_sample(plan, 1)

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


def test_plan_builds_and_checks_its_time_grid_once():
    with pytest.raises(DomainError, match="dt must be positive"):
        ExperimentPlan(grid=GRID, field_spec=RANDOM_SPEC, initial_state=PHI,
                       observable=OBS, t_final=0.25, dt=0, particle_counts=(2,),
                       samples=1, base_seed=1)
    plan = _plan(RANDOM_SPEC)
    assert plan.hartree_params == HartreeRunParams(plan.t_final, plan.dt)


def test_particle_counts_must_ascend():
    with pytest.raises(DomainError):
        _plan(RANDOM_SPEC, counts=(4, 2))
    with pytest.raises(DomainError):
        _plan(RANDOM_SPEC, counts=())


def test_estimate_statistics_against_direct_oracle():
    base = SampleResult(sample_index=0, seed=1, x_hartree=0.5,
                        x_manybody={2: 0.4})
    other = SampleResult(sample_index=1, seed=2, x_hartree=0.5,
                         x_manybody={2: 0.2})
    assert base.y == {2: pytest.approx(0.1)}
    assert other.y == {2: pytest.approx(0.3)}
    rows = estimate([base, other])
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
        estimate([])


def test_pathwise_bound_holds():
    plan = _plan(RANDOM_SPEC, samples=6)
    bound = operator_norm(OBS, GRID)
    for r in run_ensemble(plan):
        assert abs(r.x_hartree) <= bound + 1e-12
        assert all(abs(x) <= bound + 1e-12 for x in r.x_manybody.values())


def test_tail_diagnostic_behaviour():
    plan = _plan(RANDOM_SPEC, samples=6)
    results = run_ensemble(plan)
    bound = operator_norm(OBS, GRID)
    above, h_above = tail_diagnostic(results, 1.1 * bound)
    assert h_above == 0.0
    assert all(v == 0.0 for v in above.values())
    tiny, h_tiny = tail_diagnostic(results, 1e-12)
    for n in tiny:
        assert tiny[n] == pytest.approx(
            np.mean([abs(r.x_manybody[n]) for r in results]), abs=1e-15)
    assert h_tiny == pytest.approx(
        np.mean([abs(r.x_hartree) for r in results]), abs=1e-15)
    # nonincreasing in beta
    betas = [0.1, 0.5, 0.9, 1.3]
    prev = {n: np.inf for n in tiny}
    for beta in betas:
        cur, _ = tail_diagnostic(results, beta)
        for n in cur:
            assert cur[n] <= prev[n] + 1e-15
        prev = cur
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(DomainError, match="beta must be positive"):
            tail_diagnostic(results, bad)


def test_reproducible_across_thread_counts():
    plan = _plan(RANDOM_SPEC, samples=6)
    first = run_ensemble(plan)
    second = run_ensemble(plan)
    assert [r.sample_index for r in first] == list(range(plan.samples))
    for a, b in zip(first, second):
        assert a.sample_index == b.sample_index
        assert a.seed == b.seed
        assert a.x_hartree == b.x_hartree
        assert a.x_manybody == b.x_manybody
        assert a.y == b.y


def test_mean_gap_shrinks_with_n():
    plan = _plan(RANDOM_SPEC, counts=(2, 4), samples=8, t=0.5)
    rows = estimate(run_ensemble(plan))
    by_n = {row.n: row.mean_y for row in rows}
    assert by_n[4] < by_n[2]
