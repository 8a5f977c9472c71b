import re

import numpy as np
import pytest

from mflab.ensemble import ExperimentPlan
from mflab.errors import DimensionError, DomainError
from mflab.grid import (NORM_TOL, LatticeGrid, WaveFunction, check_unit, convolve,
                        gaussian_packet, grid_fft, lattice_dispersion, normalize,
                        plane_wave, uniform_state)
from mflab.hartree import field_spectra, hartree_energy, hartree_expectation
from mflab.manybody import (assemble_hamiltonian, build_fock_basis, kinetic_matrix,
                            manybody_expectation, product_state_lift)
from mflab.observables import condensate_projector
from mflab.random_field import FieldSpec, sample_field


def test_build_grid_examples():
    g = LatticeGrid(1, 8, 8.0)
    assert g.h == 1.0 and g.n_sites == 8
    g = LatticeGrid(1, 4, 2.0)
    assert g.h == 0.5 and g.n_sites == 4
    g = LatticeGrid(2, 4, 4.0)
    assert g.h == 1.0 and g.n_sites == 16


def test_build_grid_spacing_consistency():
    g = LatticeGrid(1, 7, 3.3)
    assert g.h * g.m == pytest.approx(g.length, abs=1e-15)


@pytest.mark.parametrize("d,m,length", [(0, 8, 1.0), (4, 8, 1.0), (1, 1, 1.0),
                                        (1, 8, 0.0), (1, 8, -2.0),
                                        # spacings whose powers overflow or leave
                                        # the normal range
                                        (1, 8, 1e160), (3, 8, 1e110), (1, 8, 1e-160)])
def test_build_grid_rejects_bad_parameters(d, m, length):
    with pytest.raises(DomainError):
        LatticeGrid(d, m, length)


def test_gaussian_packet_of_overflowing_width_is_uniform():
    g = LatticeGrid(2, 4, 4.0)
    wide = gaussian_packet(g, width=1e200)  # width^2 = inf: a flat profile
    assert np.array_equal(wide.amplitudes, uniform_state(g).amplitudes)


def test_laplacian_of_constant_is_zero():
    g = LatticeGrid(1, 8, 8.0)
    out = kinetic_matrix(g) @ np.full(8, 3.7 + 0.2j)
    assert np.max(np.abs(out)) == 0.0


def test_laplacian_delta_stencil():
    g = LatticeGrid(1, 4, 4.0)  # h = 1
    # T = -Lap: the 3-point stencil by hand with periodic wrap, negated
    col = kinetic_matrix(g).toarray()[:, 0]
    assert np.allclose(col, [2, -1, 0, -1], atol=1e-15)


def test_laplacian_plane_wave_eigenvalue():
    g = LatticeGrid(1, 16, 4.0)
    k = 2 * np.pi / g.length
    psi = np.exp(1j * k * g.axis_coordinates())
    out = kinetic_matrix(g) @ psi
    lam = (2 - 2 * np.cos(k * g.h)) / g.h ** 2
    assert np.allclose(out, lam * psi, atol=1e-12)


def _apply_t(g, psi):
    return WaveFunction(g, kinetic_matrix(g) @ psi.amplitudes)


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_self_adjoint(seed):
    rng = np.random.default_rng(seed)
    g = LatticeGrid(1, 12, 5.0)
    chi = WaveFunction(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    psi = WaveFunction(g, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    lhs = g.cell_volume * np.vdot(chi.amplitudes, _apply_t(g, psi).amplitudes)
    rhs = g.cell_volume * np.vdot(_apply_t(g, chi).amplitudes, psi.amplitudes)
    assert abs(lhs - rhs) < 1e-12


def test_laplacian_self_adjoint_2d():
    rng = np.random.default_rng(7)
    g = LatticeGrid(2, 4, 4.0)
    chi = WaveFunction(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    psi = WaveFunction(g, rng.standard_normal(16) + 1j * rng.standard_normal(16))
    lhs = g.cell_volume * np.vdot(chi.amplitudes, _apply_t(g, psi).amplitudes)
    rhs = g.cell_volume * np.vdot(_apply_t(g, chi).amplitudes, psi.amplitudes)
    assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("d,m", [(1, 2), (1, 3), (1, 8), (2, 2), (2, 4), (3, 2), (3, 4)])
def test_kinetic_spectrum_is_the_lattice_dispersion(d, m):
    # the many-body interval [N min lambda, N max lambda] rests on this
    g = LatticeGrid(d, m, 0.7 * m)
    lam = np.sort(lattice_dispersion(g).ravel())
    eig = np.linalg.eigvalsh(kinetic_matrix(g).toarray())
    assert np.max(np.abs(eig - lam)) <= 1e-13 * lam.max()


def _convolve_direct(grid, v, rho):
    # O(M^2) double sum over flattened periodic differences
    m, d = grid.m, grid.d
    shape = grid.shape
    out = np.zeros(grid.n_sites)
    vv = np.asarray(v).reshape(shape)
    rr = np.asarray(rho).reshape(shape)
    for xi in np.ndindex(*shape):
        acc = 0.0
        for yi in np.ndindex(*shape):
            diff = tuple((a - b) % m for a, b in zip(xi, yi))
            acc += vv[diff] * rr[yi]
        out[np.ravel_multi_index(xi, shape)] = acc
    return grid.cell_volume * out


def test_convolve_constant_kernel():
    g = LatticeGrid(1, 8, 8.0)
    rho = np.abs(np.random.default_rng(0).standard_normal(8))
    rho /= g.cell_volume * rho.sum()  # unit mass
    out = convolve(g, np.full(8, 2.5), rho)
    assert np.allclose(out, 2.5, atol=1e-12)


def test_convolve_point_kernel():
    g = LatticeGrid(1, 8, 4.0)
    v = np.zeros(8)
    v[0] = 3.0
    rho = np.random.default_rng(1).standard_normal(8)
    out = convolve(g, v, rho)
    assert np.allclose(out, g.cell_volume * 3.0 * rho, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_convolve_matches_direct_sum(seed):
    rng = np.random.default_rng(seed)
    g = LatticeGrid(1, 8, 8.0)
    v = rng.standard_normal(8)
    rho = rng.standard_normal(8)
    fast = convolve(g, v, rho)
    slow = _convolve_direct(g, v, rho)
    assert np.max(np.abs(fast - slow)) < 1e-10 * max(1.0, np.max(np.abs(slow)))


def test_convolve_matches_direct_sum_2d():
    rng = np.random.default_rng(11)
    g = LatticeGrid(2, 4, 4.0)
    v = rng.standard_normal(16)
    rho = rng.standard_normal(16)
    assert np.max(np.abs(convolve(g, v, rho) - _convolve_direct(g, v, rho))) < 1e-10


def test_convolve_even_kernel_commutes_with_reflection():
    rng = np.random.default_rng(3)
    g = LatticeGrid(1, 8, 8.0)
    raw = rng.standard_normal(8)
    refl = lambda a: np.roll(a[::-1], 1)  # j -> (M - j) mod M
    v = 0.5 * (raw + refl(raw))
    rho = rng.standard_normal(8)
    assert np.allclose(convolve(g, v, refl(rho)), refl(convolve(g, v, rho)),
                       atol=1e-12)


@pytest.mark.parametrize("shape,d", [((1, 8), 1), ((16, 8), 1), ((2, 4, 4), 2),
                                     ((3, 4, 4, 4), 3), ((5, 6), 2)])
def test_grid_fft_is_bitwise_fftn(shape, d):
    rng = np.random.default_rng(len(shape) + d)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = tuple(range(-d, 0))
    assert np.array_equal(grid_fft(a, d), np.fft.fftn(a, axes=axes))
    assert np.array_equal(grid_fft(a, d, np.fft.ifft), np.fft.ifftn(a, axes=axes))
    assert np.array_equal(grid_fft(a.real, d), np.fft.fftn(a.real, axes=axes))


def test_convolve_size_mismatch():
    g = LatticeGrid(1, 8, 8.0)
    with pytest.raises(DimensionError):
        convolve(g, np.ones(4), np.ones(8))


def test_initial_states_are_normalized():
    g = LatticeGrid(1, 16, 8.0)
    for psi in (gaussian_packet(g), uniform_state(g), plane_wave(g, 2)):
        assert abs(psi.norm() - 1.0) < 1e-12


def test_normalize_rescales():
    g = LatticeGrid(1, 8, 8.0)
    psi = normalize(WaveFunction(g, np.arange(1, 9, dtype=complex)))
    assert abs(psi.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("d, m", [(1, 8), (1, 5), (2, 4), (3, 3), (2, 2)])
def test_inversion_is_the_reflection_x_to_minus_x(d, m):
    g = LatticeGrid(d, m, float(m))
    inv = g.inversion()
    coords = np.indices(g.shape).reshape(d, -1)
    assert np.array_equal(coords[:, inv], -coords % m)
    assert np.array_equal(inv[inv], np.arange(g.n_sites))  # an involution
    # on M = 2 every site is its own mirror image
    assert np.array_equal(inv, np.arange(g.n_sites)) == (m == 2)


def test_is_even_compares_bit_for_bit_and_matches_nan_with_nan():
    g = LatticeGrid(1, 8, 8.0)
    z = np.random.default_rng(0).standard_normal(8)
    even = z + z[g.inversion()]  # a + b and b + a round alike
    assert g.is_even(even) and g.is_even(np.full(8, np.nan))
    nudged = even.copy()
    nudged[1] = np.nextafter(nudged[1], 2.0)
    assert not g.is_even(nudged)
    # on M = 2 every site is its own mirror image, so every vector is even
    assert LatticeGrid(1, 2, 2.0).is_even(np.array([1.0, 2.0]))


def test_check_unit_names_the_norm_it_refuses():
    check_unit(1.0 - NORM_TOL / 2, "the flow")
    for norm in (1.0 + 2 * NORM_TOL, 0.5, np.nan, np.inf):
        with pytest.raises(DomainError, match=rf"^the flow requires a unit state, "
                                              rf"norm = {norm!r}$"):
            check_unit(norm, "the flow")


# as many sites as WANT, but another spacing
WANT, GOT = LatticeGrid(1, 8, 8.0), LatticeGrid(1, 8, 16.0)


def _entry_points():
    """Each entry point called with one object on GOT, everything else on WANT,
    and the name it gives that object."""
    phi, other = gaussian_packet(WANT), gaussian_packet(GOT)
    v, v_other = (sample_field(FieldSpec(base="cosine(0.8, 1)"), 1, g) for g in (WANT, GOT))
    basis = build_fock_basis(2, WANT)

    def plan(state, observable):
        return ExperimentPlan(grid=WANT, field_spec=FieldSpec(), initial_state=state,
                              observable=observable, t_final=0.25, dt=0.25 / 128,
                              particle_counts=(2,), samples=1, base_seed=1)

    return {
        "plan-state": (lambda: plan(other, condensate_projector(phi)), "the initial state"),
        "plan-observable": (lambda: plan(phi, condensate_projector(other)), "the observable"),
        "assemble_hamiltonian": (lambda: assemble_hamiltonian(basis, v_other), "the field"),
        "product_state_lift": (lambda: product_state_lift(other, basis), "the state"),
        "field_spectra": (lambda: field_spectra([v, v_other], WANT), "the field"),
        "hartree_energy": (lambda: hartree_energy(phi, v_other), "the field"),
        "hartree_expectation": (lambda: hartree_expectation(phi, condensate_projector(other)),
                                "the observable"),
        "manybody_expectation": (lambda: manybody_expectation(
            product_state_lift(phi, basis), condensate_projector(other)), "the observable"),
    }


@pytest.mark.parametrize("entry", list(_entry_points()))
def test_every_entry_point_refuses_another_grid_with_the_one_message(entry):
    call, what = _entry_points()[entry]
    message = f"{what} lives on {GOT}, not on {WANT}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()
