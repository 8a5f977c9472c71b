"""Symmetry oracles for the many-body propagator at the benchmark's sizes.

No dense reference reaches the top sectors of the benchmark workloads (the
dimension is 54,264 on `reach`), so these tests check what H = one_body +
diag(h), the hopping plus the kinetic constant and the pair term, must
conserve for every field instead: H commutes with the lattice translations
(the hopping is periodic, and the pair term depends on x - y) and with the
inversion x -> -x (the hopping is a symmetric stencil and every field is
even), and e^{-iHt} conserves <H>. Each test runs the workload's largest N
against sample 0's field.
"""
from pathlib import Path

import numpy as np
import pytest

from mflab.config import parse_config
from mflab.grid import WaveFunction
from mflab.manybody import (_rank, assemble_hamiltonian,
                            build_fock_basis, energy_expectation, evolve_manybody,
                            manybody_expectation, product_state_lift)
from mflab.observables import SpectralFactors
from mflab.random_field import mix_seed, sample_field

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def _workload(name):
    """A workload's plan, its top sector and sample 0's diagonal h of H there."""
    plan, _ = parse_config(WORKLOADS / f"{name}.cfg")
    basis = build_fock_basis(plan.particle_counts[-1], plan.grid, plan.observable.p)
    v = sample_field(plan.field_spec, mix_seed(plan.base_seed, 0), plan.grid)
    return plan, basis, assemble_hamiltonian(basis, v)


@pytest.mark.parametrize("name, shift", [("reach", (1, 2)), ("long_time", (3,))])
def test_x_n_is_invariant_under_a_lattice_translation(name, shift):
    plan, basis, h = _workload(name)
    g, phi, a = plan.grid, plan.initial_state, plan.observable
    axes = tuple(range(g.d))
    moved_phi = WaveFunction(g, np.roll(phi.amplitudes.reshape(g.shape), shift, axes))
    assert not np.allclose(moved_phi.amplitudes, phi.amplitudes)
    # the p site indices of each factor's rows, each shifted by the same lattice vector
    rows = a.u.reshape(g.shape * a.p + (-1,))
    moved_a = SpectralFactors(a.mu, np.roll(rows, shift * a.p, tuple(
        range(a.p * g.d))).reshape(a.u.shape), g, a.p)
    x_n, moved_x_n = (
        manybody_expectation(evolve_manybody(product_state_lift(u, basis), h, plan.t_final),
                             obs)
        for u, obs in ((phi, a), (moved_phi, moved_a)))
    assert abs(moved_x_n - x_n) < 1e-13


def test_an_inversion_even_packet_stays_even():
    plan, basis, h = _workload("reach")
    g = plan.grid
    # the site at -x for each site x; the packet is centered on a site at L/2,
    # which is -L/2 on the periodic lattice, so it is even under x -> -x
    coords = np.indices(g.shape).reshape(g.d, -1)
    mirror = np.ravel_multi_index(tuple(-coords % g.m), g.shape)
    reflected = _rank(basis.occupations[:, mirror], basis.n_particles)
    assert not np.array_equal(reflected, np.arange(len(basis)))

    def odd_part(psi):
        c = psi.coefficients
        return np.linalg.norm(c - c[reflected]) / 2

    psi0 = product_state_lift(plan.initial_state, basis)
    assert odd_part(psi0) < 1e-13
    assert odd_part(evolve_manybody(psi0, h, plan.t_final)) < 1e-13


def test_propagation_conserves_energy_at_production_size():
    plan, basis, h = _workload("reach")
    packet = product_state_lift(plan.initial_state, basis)
    phase = np.exp(0.3j * np.arange(basis.grid.n_sites))  # a complex Psi_0 too
    boosted = product_state_lift(
        WaveFunction(plan.grid, plan.initial_state.amplitudes * phase), basis)
    assert boosted.coefficients.imag.any()
    for psi0 in (packet, boosted):
        e0 = energy_expectation(psi0, h)
        e_t = energy_expectation(evolve_manybody(psi0, h, plan.t_final), h)
        assert abs(e_t - e0) <= 1e-12 * abs(e0)
