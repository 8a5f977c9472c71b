"""Symmetry oracles for the many-body propagator at the benchmark's sizes.

No dense reference reaches the top sectors of the benchmark workloads (the
dimension is 54,264 on `reach`), so these tests check what H = one_body +
diag(h), the hopping plus the kinetic constant and the pair term, must
conserve for every field instead: H commutes with the lattice translations
(the hopping is periodic, and the pair term depends on x - y) and with the
inversion x -> -x (the hopping is a symmetric stencil and every field is
even), and e^{-iHt} conserves <H>. The inversion is why a plan propagates
each sector in its mirror-even block, so that block is checked against the
whole sector: Psi_t and X_N agree state by state. Each workload test runs
the workload's largest N against sample 0's field.
"""
from pathlib import Path

import numpy as np
import pytest

from mflab.config import parse_config
from mflab.errors import DomainError
from mflab.grid import LatticeGrid, WaveFunction, gaussian_packet
from mflab.manybody import (_rank, assemble_hamiltonian,
                            build_fock_basis, energy_expectation, evolve_manybody,
                            manybody_expectation, product_state_lift)
from mflab.observables import SpectralFactors, condensate_projector
from mflab.random_field import FieldSpec, RandomField, mix_seed, sample_field

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def _orbit(full, block):
    """orbit[i]: the row of the block that holds the orbit of the full
    sector's state of rank i, the lower of rank(i) and rank(Pi)."""
    n = full.n_particles
    mirrored = _rank(full.occupations[:, full.grid.inversion()], n)
    reps = _rank(block.occupations, n)
    orbit = np.searchsorted(reps, np.minimum(np.arange(len(full)), mirrored))
    assert np.array_equal(reps[orbit], np.minimum(np.arange(len(full)), mirrored))
    return orbit


class _Sectors:
    """A plan's top sector, whole and as its plan's mirror-even block, with
    sample 0's field and its diagonal h of H on each."""

    def __init__(self, plan):
        self.plan = plan
        n, g, p = plan.particle_counts[-1], plan.grid, plan.observable.p
        self.full = build_fock_basis(n, g, p)
        self.block = build_fock_basis(n, g, p, plan.halved)
        self.v = sample_field(plan.field_spec, mix_seed(plan.base_seed, 0), g)
        self.h_full = assemble_hamiltonian(self.full, self.v)
        self.h_block = assemble_hamiltonian(self.block, self.v)


@pytest.fixture(scope="module")
def reach():
    return _Sectors(parse_config(WORKLOADS / "reach.cfg")[0])


@pytest.fixture(scope="module")
def long_time():
    return _Sectors(parse_config(WORKLOADS / "long_time.cfg")[0])


@pytest.mark.parametrize("name, shift", [("reach", (1, 2)), ("long_time", (3,))])
def test_x_n_is_invariant_under_a_lattice_translation(request, name, shift):
    # a translated packet is not even, so this runs on the whole sector
    sectors = request.getfixturevalue(name)
    plan, basis, h = sectors.plan, sectors.full, sectors.h_full
    g, phi, a = plan.grid, plan.initial_state, plan.observable
    axes = tuple(range(g.d))
    moved_phi = WaveFunction(g, np.roll(phi.amplitudes.reshape(g.shape), shift, axes))
    assert not np.allclose(moved_phi.amplitudes, phi.amplitudes)
    # each factor's site rows, shifted by the same lattice vector
    rows = a.u.reshape(g.shape + (-1,))
    moved_a = SpectralFactors(a.mu, np.roll(rows, shift, axes).reshape(a.u.shape), g, a.p)
    x_n, moved_x_n = (
        manybody_expectation(evolve_manybody(product_state_lift(u, basis), h, plan.t_final),
                             obs)
        for u, obs in ((phi, a), (moved_phi, moved_a)))
    assert abs(moved_x_n - x_n) < 1e-13


def test_an_inversion_even_packet_stays_even(reach):
    # on the whole sector: the packet is centered on a site at L/2, which is
    # -L/2 on the periodic lattice, so it is even under x -> -x, and so is
    # e^{-iHt} of its lift; the mirror-even block rests on exactly this
    plan, basis = reach.plan, reach.full
    assert plan.halved
    reflected = _rank(basis.occupations[:, plan.grid.inversion()], basis.n_particles)
    assert not np.array_equal(reflected, np.arange(len(basis)))

    def odd_part(psi):
        c = psi.coefficients
        return np.linalg.norm(c - c[reflected]) / 2

    psi0 = product_state_lift(plan.initial_state, basis)
    assert odd_part(psi0) < 1e-13
    assert odd_part(evolve_manybody(psi0, reach.h_full, plan.t_final)) < 1e-13


def test_propagation_conserves_energy_at_production_size(reach):
    plan, basis, h = reach.plan, reach.block, reach.h_block
    assert len(basis) == 27_412  # the mirror-even block of 54,264 states
    packet = product_state_lift(plan.initial_state, basis)
    # a complex Psi_0 too, from a phase that is even, as the block requires
    k = np.arange(basis.grid.n_sites)
    phase = np.exp(0.3j * (k + k[basis.grid.inversion()]))
    boosted = product_state_lift(
        WaveFunction(plan.grid, plan.initial_state.amplitudes * phase), basis)
    assert boosted.coefficients.imag.any()
    for psi0 in (packet, boosted):
        e0 = energy_expectation(psi0, h)
        e_t = energy_expectation(evolve_manybody(psi0, h, plan.t_final), h)
        assert abs(e_t - e0) <= 1e-12 * abs(e0)


def _check_block_against_full(full, block, phi, v, t, factors):
    """Psi_t of the block against the whole sector's, state by state through
    the orbit index, and X_N from each, both to 1e-14."""
    orbit = _orbit(full, block)
    psi_full, psi_block = (
        evolve_manybody(product_state_lift(phi, basis), assemble_hamiltonian(basis, v), t)
        for basis in (full, block))
    assert abs(psi_block.norm() - 1.0) < 1e-13
    assert np.abs(psi_block.coefficients[orbit] - psi_full.coefficients).max() < 1e-14
    assert abs(manybody_expectation(psi_block, factors)
               - manybody_expectation(psi_full, factors)) < 1e-14


# whole and block dimensions and one_body entries of each workload's top sector
@pytest.mark.parametrize("name, sizes", [("reach", (54_264, 27_412, 992_256, 500_992)),
                                         ("long_time", (6_435, 3_270, 54_912, 27_896))])
def test_the_mirror_even_block_propagates_as_the_whole_sector_on_a_workload(
        request, name, sizes):
    sectors = request.getfixturevalue(name)
    full, block, plan = sectors.full, sectors.block, sectors.plan
    assert (len(full), len(block), full.one_body.nnz, block.one_body.nnz) == sizes
    _check_block_against_full(full, block, plan.initial_state, sectors.v, plan.t_final,
                              plan.observable)


# d = 3 (27 sites, P fixes one), odd M (P fixes one site per axis), and M = 2,
# where x -> -x fixes every site, so the block is the whole sector
@pytest.mark.parametrize("d, m, n, p", [(3, 3, 3, 2), (1, 5, 6, 1), (2, 2, 5, 2)])
def test_the_mirror_even_block_propagates_as_the_whole_sector(d, m, n, p):
    g = LatticeGrid(d, m, float(m))
    phi = gaussian_packet(g)  # centered at L/2 = m/2, even bit for bit
    spec = FieldSpec(base="gaussian_bump(1.0, 1.5)", mode_stddevs=(0.5,) * ((m - 1) // 2))
    v = sample_field(spec, 7, g)
    full, block = build_fock_basis(n, g, p), build_fock_basis(n, g, p, halved=True)
    if m == 2:
        assert np.array_equal(g.inversion(), np.arange(g.n_sites))
        # the inversion's orbits, ranked and climbed, are the whole sector's closed form
        for attr in ("occupations", "multiplicity"):
            assert np.array_equal(getattr(block, attr), getattr(full, attr)), attr
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block.one_body, attr), getattr(full.one_body, attr))
        for got, want in zip(sum(block.gathers, ()), sum(full.gathers, ()), strict=True):
            assert np.array_equal(got, want)
    else:
        assert len(block) < len(full)
        assert set(np.unique(block.multiplicity)) == {1, 2}
    _check_block_against_full(full, block, phi, v, 0.7, condensate_projector(phi, p))


def test_a_field_that_is_not_even_is_rejected_on_the_block(reach):
    g = reach.plan.grid
    values = reach.v.values.copy()
    values[1] += 1e-3  # site 1 and its mirror image, site 3, now differ
    odd = RandomField(g, values)
    with pytest.raises(DomainError, match="the field differs from its mirror image"):
        assemble_hamiltonian(reach.block, odd)
    # the whole sector holds every field
    assert assemble_hamiltonian(reach.full, odd).shape == (len(reach.full),)


def test_a_state_that_is_not_even_is_rejected_on_the_block(reach):
    g = reach.plan.grid
    moved = WaveFunction(g, np.roll(reach.plan.initial_state.amplitudes, 1))
    with pytest.raises(DomainError, match="the state differs from its mirror image"):
        product_state_lift(moved, reach.block)
    assert len(product_state_lift(moved, reach.full).coefficients) == len(reach.full)
