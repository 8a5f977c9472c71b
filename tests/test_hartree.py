import numpy as np
import pytest

from mflab.errors import DimensionError, DomainError
from mflab.grid import (LatticeGrid, WaveFunction, convolve, gaussian_packet,
                        lattice_dispersion, normalize, plane_wave)
from mflab.hartree import (HartreeRunParams, evolve_hartree_batch,
                           field_spectra, hartree_energy, hartree_expectation,
                           hartree_step, potential_phase)
from mflab.observables import SpectralFactors, condensate_projector, spectral_factors
from mflab.random_field import FieldSpec, RandomField, sample_field


GRID = LatticeGrid(1, 8, 8.0)


def _field(base="zero", mean=0.0, sigmas=(), seed=0, grid=GRID):
    return sample_field(FieldSpec(base=base, gaussian_mean=mean,
                                  mode_stddevs=sigmas), seed, grid)


def _batch(psi, copies=1, grid=GRID):
    """psi repeated as a (copies, *grid.shape) batch."""
    return np.repeat(psi.amplitudes.reshape(1, *grid.shape), copies, axis=0)


def _step(psi, fields, dt, grid=GRID):
    phases = np.exp(-1j * dt * lattice_dispersion(grid))
    return hartree_step(_batch(psi, len(fields), grid), field_spectra(fields, grid),
                        dt, grid, phases)


@pytest.mark.parametrize("d, m", [(1, 2), (1, 8), (1, 64), (1, 101), (2, 3), (2, 4),
                                  (3, 4), (3, 16)])
def test_field_spectra_are_bitwise_the_fftn_of_each_field(d, m):
    # one batched grid_fft over the stacked fields, the same bits as one fftn each
    g = LatticeGrid(d, m, float(m))
    rng = np.random.default_rng(m)
    fields = [RandomField(g, rng.standard_normal(g.n_sites)) for _ in range(3)]
    want = [np.fft.fftn(v.values.reshape(g.shape)) for v in fields]
    assert np.array_equal(field_spectra(fields, g), np.stack(want))


def test_free_step_multiplies_plane_wave_by_dispersion_phase():
    psi = plane_wave(GRID, 1)
    v = _field()  # identically zero
    dt = 0.01
    out = _step(psi, [v], dt)
    lam = lattice_dispersion(GRID).ravel()[1]  # mode k=1
    expected = np.exp(-1j * dt * lam) * psi.amplitudes
    assert np.max(np.abs(out[0] - expected)) < 1e-13


def test_kinetic_disabled_leaves_pure_nonlinear_phase():
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=3)
    dt = 0.05
    fv = field_spectra([v], GRID)
    # the two half-step phases of a Strang step, without the kinetic step
    out = potential_phase(potential_phase(_batch(psi), fv, dt / 2, GRID),
                          fv, dt / 2, GRID)
    w = convolve(GRID, v.values, np.abs(psi.amplitudes) ** 2)
    expected = psi.amplitudes * np.exp(-1j * dt * w)
    assert np.max(np.abs(out[0] - expected)) < 1e-14


def test_step_preserves_norm():
    psi = gaussian_packet(GRID)
    fields = [_field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5,), seed=s)
              for s in (1, 2)]
    out = _step(psi, fields, 0.01)
    for row in out:
        assert abs(WaveFunction(GRID, row).norm() - psi.norm()) < 1e-12


def test_norm_conserved_over_thousand_steps():
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3, 0.1), seed=5)
    params = HartreeRunParams(t_final=1.0, dt=1e-3)
    out = evolve_hartree_batch(psi, [v], params)[0]
    assert params.steps == 1000
    assert abs(out.norm() - 1.0) < 1e-10


def test_norm_conserved_over_hundred_thousand_steps():
    # roundoff drifts the norm by about 2.3e-17 per step, 2.33e-12 here: more
    # than a fixed 1e-12, well inside 1e-12 plus one ulp per step
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3, 0.1), seed=5)
    params = HartreeRunParams(t_final=100.0, dt=1e-3)
    out = evolve_hartree_batch(psi, [v], params)[0]
    assert params.steps == 100_000
    assert abs(out.norm() - 1.0) < 1e-12 + params.steps * np.finfo(float).eps


def test_non_unit_initial_state_rejected():
    psi = WaveFunction(GRID, 1.001 * gaussian_packet(GRID).amplitudes)
    with pytest.raises(DomainError, match="unit state"):
        evolve_hartree_batch(psi, [_field()], HartreeRunParams(0.1, 0.01))[0]


def test_exit_norm_check_names_the_drifting_field(monkeypatch):
    import mflab.hartree

    def leaky_step(psi, *args):
        out = hartree_step(psi, *args)
        out[2] *= 1.0 + 1e-9
        return out

    monkeypatch.setattr(mflab.hartree, "hartree_step", leaky_step)
    fields = [_field(sigmas=(0.5,), seed=s) for s in range(4)]
    with pytest.raises(DomainError, match="norm drifted") as info:
        evolve_hartree_batch(gaussian_packet(GRID), fields,
                             HartreeRunParams(0.1, 0.01))
    assert info.value.row == 2


@pytest.mark.parametrize("grid", [GRID, LatticeGrid(2, 8, 8.0)],
                         ids=["d1", "d2"])
def test_batch_equals_fields_evolved_alone(grid):
    psi = gaussian_packet(grid)
    fields = [_field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3, 0.1),
                     seed=s, grid=grid) for s in range(5)]
    params = HartreeRunParams(0.25, 0.25 / 64)
    batch = evolve_hartree_batch(psi, fields, params)
    for v, together in zip(fields, batch):
        alone = evolve_hartree_batch(psi, [v], params)[0]
        assert np.array_equal(together.amplitudes, alone.amplitudes)


def test_zero_time_is_identity():
    psi = gaussian_packet(GRID)
    v = _field(sigmas=(0.5,), seed=2)
    params = HartreeRunParams(t_final=0.0, dt=0.1)
    out = evolve_hartree_batch(psi, [v], params)[0]
    assert np.array_equal(out.amplitudes, psi.amplitudes)


@pytest.mark.parametrize("t_final, dt", [(-1.0, 0.1), (np.nan, 0.1), (np.inf, 0.1),
                                         (1.0, 0.0), (1.0, np.nan)])
def test_run_params_reject_a_time_grid_out_of_range(t_final, dt):
    with pytest.raises(DomainError, match="t_final must be finite|dt must be positive"):
        HartreeRunParams(t_final, dt)


def test_constant_interaction_is_global_phase():
    psi = gaussian_packet(GRID)
    c = 0.7
    v_const = _field(mean=c)
    v_zero = _field()
    params = HartreeRunParams(t_final=0.5, dt=0.5 / 512)
    out = evolve_hartree_batch(psi, [v_const], params)[0]
    free = evolve_hartree_batch(psi, [v_zero], params)[0]
    overlap = GRID.cell_volume * np.vdot(free.amplitudes, out.amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_strang_splitting_is_second_order():
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=8)
    t = 0.5

    def terminal(dt):
        return evolve_hartree_batch(psi, [v], HartreeRunParams(t, dt))[0].amplitudes

    ref = terminal(t / 1024)  # dt/16 reference
    err_coarse = np.linalg.norm(terminal(t / 64) - ref)
    err_fine = np.linalg.norm(terminal(t / 128) - ref)
    assert 3.5 <= err_coarse / err_fine <= 4.5


def test_energy_drift_is_small():
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3, 0.1), seed=4)
    e0 = hartree_energy(psi, v)
    out = evolve_hartree_batch(psi, [v], HartreeRunParams(0.5, 0.5 / 512))[0]
    e1 = hartree_energy(out, v)
    assert abs(e1 - e0) / abs(e0) < 1e-6


def test_time_reversal_returns_initial_state():
    psi = gaussian_packet(GRID)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=6)
    params = HartreeRunParams(0.5, 0.5 / 512)
    fwd = evolve_hartree_batch(psi, [v], params)[0]
    # v is real, so conjugation implements the backward flow
    back = evolve_hartree_batch(WaveFunction(GRID, fwd.amplitudes.conj()), [v],
                                params)[0]
    recovered = back.amplitudes.conj()
    phase = np.vdot(recovered, psi.amplitudes)
    phase /= abs(phase)
    assert np.max(np.abs(recovered * phase - psi.amplitudes)) < 1e-8


def test_expectation_projector_on_own_state():
    psi = gaussian_packet(GRID)
    a = condensate_projector(psi)
    assert hartree_expectation(psi, a) == pytest.approx(1.0, abs=1e-12)


def test_expectation_projector_on_orthogonal_state():
    phi = plane_wave(GRID, 1)
    chi = plane_wave(GRID, 2)
    a = condensate_projector(phi)
    assert abs(hartree_expectation(chi, a)) < 1e-12


def test_expectation_product_kernel_factorizes():
    rng = np.random.default_rng(0)
    psi, phi = (normalize(WaveFunction(GRID, rng.standard_normal(8)
                                       + 1j * rng.standard_normal(8))) for _ in range(2))
    # the p = 2 projector's kernel is b (x) b for the one-particle b = |phi><phi|
    b = np.outer(phi.amplitudes, phi.amplitudes.conj())
    x1 = hartree_expectation(psi, spectral_factors(b, GRID))
    x2 = hartree_expectation(psi, condensate_projector(phi, 2))
    # direct double sum over the p=2 kernel
    vec = np.kron(psi.amplitudes, psi.amplitudes)
    direct = GRID.cell_volume ** 4 * np.vdot(vec, np.kron(b, b) @ vec).real
    assert x2 == pytest.approx(x1 ** 2, rel=1e-10)
    assert x2 == pytest.approx(direct, rel=1e-12)


def test_expectation_bounded_by_operator_norm():
    rng = np.random.default_rng(1)
    a = condensate_projector(gaussian_packet(GRID))
    bound = np.abs(a.mu).max()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        psi = normalize(WaveFunction(GRID, rng.standard_normal(8)
                                     + 1j * rng.standard_normal(8)))
        assert abs(hartree_expectation(psi, a)) <= bound + 1e-12


def test_expectation_rejects_factors_of_another_grid():
    psi = gaussian_packet(GRID)
    for g, p in ((LatticeGrid(1, 5, 5.0), 1), (LatticeGrid(1, 3, 3.0), 2),
                 (LatticeGrid(2, 4, 8.0), 1)):
        factors = condensate_projector(gaussian_packet(g), p)
        with pytest.raises(DimensionError, match=r"^the observable lives on .*, not on "):
            hartree_expectation(psi, factors)


@pytest.mark.parametrize("factor_grid,p,state_grid", [
    (LatticeGrid(2, 4, 8.0), 2, LatticeGrid(1, 16, 16.0)),  # 16 rows, as 16 sites have
    (GRID, 1, LatticeGrid(1, 8, 2.0)),  # the same 8 sites, another h
])
def test_expectation_rejects_factors_with_the_rows_of_another_grid(factor_grid, p,
                                                                   state_grid):
    factors = condensate_projector(gaussian_packet(factor_grid), p)
    with pytest.raises(DimensionError, match=r"^the observable lives on .*, not on "):
        hartree_expectation(gaussian_packet(state_grid), factors)


@pytest.mark.parametrize("p", [1, 2])
def test_zero_observable_has_x_exactly_zero(p):
    zero = spectral_factors(np.zeros((8, 8)), GRID)
    assert zero.mu.shape == (0,)  # no pair passes the rank cut
    factors = SpectralFactors(zero.mu, zero.u, GRID, p)
    assert hartree_expectation(gaussian_packet(GRID), factors) == 0.0


def test_non_self_adjoint_kernel_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(DomainError, match="finite and self-adjoint"):
        spectral_factors(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)),
                         GRID)


def test_grid_mismatch_rejected():
    psi = gaussian_packet(GRID)
    other = LatticeGrid(1, 8, 4.0)
    v = _field(grid=other)
    with pytest.raises(DimensionError):
        _step(psi, [v], 0.01)
    with pytest.raises(DimensionError):
        evolve_hartree_batch(psi, [v], HartreeRunParams(0.1, 0.01))[0]


def test_energy_rejects_a_field_on_another_grid_with_as_many_sites():
    v = _field(base="gaussian_bump(1.0, 1.5)", grid=LatticeGrid(2, 4, 8.0))
    with pytest.raises(DimensionError, match="lives on"):
        hartree_energy(gaussian_packet(LatticeGrid(1, 16, 16.0)), v)


@pytest.mark.parametrize("d, m", [(2, 4), (1, 101)], ids=["d2-M4", "d1-M101"])
def test_merged_flow_matches_unmerged_strang_steps(d, m):
    grid = LatticeGrid(d, m, 8.0)
    psi = gaussian_packet(grid)
    v = _field(base="gaussian_bump(1.0, 1.5)", sigmas=(0.5,), seed=7, grid=grid)
    params = HartreeRunParams(0.5, 0.5 / 512)
    dt = params.effective_dt
    kinetic = np.exp(-1j * dt * lattice_dispersion(grid))

    def half_phase(a):
        w = convolve(grid, v.values, np.abs(a) ** 2).reshape(grid.shape)
        return a * np.exp(-0.5j * dt * w)

    ref = psi.amplitudes.reshape(grid.shape)
    for _ in range(params.steps):  # V(dt/2) K(dt) V(dt/2), each step on its own
        ref = half_phase(np.fft.ifftn(np.fft.fftn(half_phase(ref)) * kinetic))
    out = evolve_hartree_batch(psi, [v], params)[0]
    assert np.max(np.abs(out.amplitudes - ref.ravel())) < 1e-12


def test_params_snap_dt_to_horizon():
    params = HartreeRunParams(t_final=1.0, dt=0.3)
    assert params.steps * params.effective_dt == pytest.approx(1.0, abs=1e-15)
