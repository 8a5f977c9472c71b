import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mflab.errors import DimensionError, DomainError
from mflab.grid import LatticeGrid, WaveFunction, gaussian_packet, normalize, plane_wave
from mflab.hartree import hartree_expectation
from mflab.manybody import (ManyBodyState, build_fock_basis, manybody_expectation,
                            product_state_lift)
from mflab.observables import (SpectralFactors, condensate_projector, site_multiplier,
                               spectral_factors)
from oracles import DenseKernel, tensor_power_kernel, x_n_oracle, x_oracle


def _projector_kernel(phi, p):
    """The kernel (|phi><phi|)^(x)p, from np.kron of outer products."""
    return functools.reduce(np.kron, [np.outer(phi.amplitudes, phi.amplitudes.conj())] * p)


def _multiplier_kernel(g, amplitude, mode):
    """The kernel diag(f)/h^d of f = A prod_i cos(2 pi mode x_i / L), from site coordinates."""
    x = np.indices(g.shape).reshape(g.d, -1) * g.h
    f = amplitude * np.prod(np.cos(2 * np.pi * mode * x / g.length), axis=0)
    return np.diag(f) / g.cell_volume


_SHAPE = r"^the kernel has shape \(.*\), not \(4, 4\)$"
_SELF_ADJOINT = r"^kernel must be finite and self-adjoint to 1e-12 max\|K\|$"


@pytest.mark.parametrize("kernel, error, message", [
    (np.ones((4, 3)), DimensionError, _SHAPE),
    (np.ones(4), DimensionError, _SHAPE),
    (np.eye(2), DimensionError, _SHAPE),  # another site count
    (np.eye(16), DimensionError, _SHAPE),  # 16 = 4^2, the rows of a p = 2 kernel
    (np.triu(np.ones((4, 4))), DomainError, _SELF_ADJOINT),
    (np.diag([1.0, np.nan, 1.0, 1.0]), DomainError, _SELF_ADJOINT),
    (np.diag([1.0, np.inf, 1.0, 1.0]), DomainError, _SELF_ADJOINT),
], ids=["not-square", "one-axis", "2-sites", "16-sites", "not-self-adjoint", "nan", "inf"])
def test_spectral_factors_validate_the_kernel(kernel, error, message):
    with pytest.raises(error, match=message):
        spectral_factors(kernel, LatticeGrid(1, 4, 4.0))


def test_spectral_factors_carry_their_grid_and_order():
    g = LatticeGrid(1, 4, 3.0)
    factors = spectral_factors(_projector_kernel(gaussian_packet(g), 1), g)
    assert (factors.grid, factors.p) == (g, 1)
    assert factors.mu.shape == (1,) and factors.u.shape == (4, 1)


@pytest.mark.parametrize("p", [0, -1])
def test_condensate_projector_rejects_a_particle_count_below_one(p):
    phi = gaussian_packet(LatticeGrid(1, 4, 4.0))
    with pytest.raises(DomainError, match=rf"particle count must be >= 1, got {p}$"):
        condensate_projector(phi, p)


def test_spectral_factors_leave_the_kernel_as_given_and_keep_no_view_of_it():
    g = LatticeGrid(1, 8, 8.0)
    k = np.eye(8, dtype=complex)
    factors = spectral_factors(k, g)
    assert k.flags.writeable and np.array_equal(k, np.eye(8))
    k[0, 0] = 5.0
    assert np.abs(factors.mu).max() == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        factors.mu[0] = 5.0


def test_operator_norm_rank_one_projector():
    g = LatticeGrid(1, 8, 8.0)
    phi = gaussian_packet(g)
    a = condensate_projector(phi, p=1)
    assert np.abs(a.mu).max() == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_identity_kernel():
    g = LatticeGrid(1, 8, 4.0)
    factors = spectral_factors(np.eye(8) / g.cell_volume, g)
    assert np.abs(factors.mu).max() == pytest.approx(1.0, abs=1e-8)


def _symmetric_basis_p2(sites):
    """Orthonormal basis of the two-particle symmetric subspace (l2 coords)."""
    cols = []
    for x in range(sites):
        for y in range(x, sites):
            e = np.zeros(sites * sites)
            if x == y:
                e[x * sites + y] = 1.0
            else:
                e[x * sites + y] = e[y * sites + x] = 1 / math.sqrt(2)
            cols.append(e)
    return np.array(cols).T


def _orthonormal_columns(rng, sites, r):
    q, _ = np.linalg.qr(rng.standard_normal((sites, r)) + 1j * rng.standard_normal((sites, r)))
    return q


def test_operator_norm_p2_matches_dense_eigensolver():
    # factors of orthonormal columns, as every factor mflab builds has: their norm
    # max|mu| is that of the dense kernel on the symmetric subspace
    rng = np.random.default_rng(5)
    g = LatticeGrid(1, 4, 4.0)
    factors = SpectralFactors(np.array([0.7, -1.3, 0.4]), _orthonormal_columns(rng, 4, 3), g, 2)
    # a large eigenvalue on an antisymmetric vector, which the restriction
    # must not see
    anti = np.zeros(16)
    anti[0 * 4 + 1], anti[1 * 4 + 0] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    b = g.cell_volume ** 2 * tensor_power_kernel(factors).kernel + 100.0 * np.outer(anti, anti)
    basis = _symmetric_basis_p2(4)
    assert basis.shape == (16, 10)  # 10-dimensional symmetric subspace
    restricted = basis.T @ b @ basis
    dense = float(np.max(np.abs(np.linalg.eigvalsh(restricted))))
    assert np.abs(factors.mu).max() == pytest.approx(dense, rel=1e-12)


def test_operator_norm_p3_matches_combinations_basis():
    # orthonormal symmetric basis from multisets of sites
    rng = np.random.default_rng(17)
    sites, p = 3, 3
    g = LatticeGrid(1, sites, 2.0)
    factors = SpectralFactors(np.array([-2.1, 0.9]), _orthonormal_columns(rng, sites, 2), g, p)
    # a large eigenvalue on the antisymmetric vector, which the restriction
    # must not see
    anti = np.zeros(27)
    for perm in itertools.permutations(range(p)):
        sign = np.linalg.det(np.eye(p)[list(perm)])
        anti[np.ravel_multi_index(perm, (sites,) * p)] = sign / math.sqrt(6)
    b = g.cell_volume ** p * tensor_power_kernel(factors).kernel + 100.0 * np.outer(anti, anti)
    cols = []
    for combo in itertools.combinations_with_replacement(range(sites), p):
        perms = set(itertools.permutations(combo))
        e = np.zeros(sites ** p)
        for perm in perms:
            e[np.ravel_multi_index(perm, (sites,) * p)] = 1.0 / math.sqrt(len(perms))
        cols.append(e)
    q = np.array(cols).T
    assert q.shape == (27, 10)
    dense = float(np.max(np.abs(np.linalg.eigvalsh(q.T @ b @ q))))
    assert np.abs(factors.mu).max() == pytest.approx(dense, rel=1e-12)


def test_operator_norm_near_degenerate_site_multiplier():
    # the top two singular values, 1 and cos(pi/101), differ by about 5e-4;
    # the norm must still come out exactly
    g = LatticeGrid(1, 101, 101.0)
    assert np.abs(site_multiplier(g).mu).max() == pytest.approx(1.0, abs=1e-14)


def _block_symmetrized(kernel, p, sites):
    """K averaged over the p! simultaneous permutations of its coordinate
    blocks, from explicit multi-indices."""
    shape = (sites,) * p
    out = np.zeros_like(kernel)
    for perm in itertools.permutations(range(p)):
        idx = [np.ravel_multi_index([x[k] for k in perm], shape)
               for x in itertools.product(range(sites), repeat=p)]
        out += kernel[np.ix_(idx, idx)]
    return out / math.factorial(p)


@pytest.mark.parametrize("p", [2, 3])
def test_results_invariant_under_block_symmetrization(p):
    # a kernel is seen only on bosonic states: adding H - sym(H) to the factors'
    # kernel K, for a Hermitian H and its block-symmetrization sym(H), leaves its
    # restriction there as it is, so X and X_N of the factors must be the dense
    # traces of K + H - sym(H), and of its block-symmetrization, alike
    rng = np.random.default_rng(50 + p)
    sites, n = 4, 4
    g = LatticeGrid(1, sites, 3.0)
    raw = (rng.standard_normal((sites ** p,) * 2)
           + 1j * rng.standard_normal((sites ** p,) * 2))
    factors = SpectralFactors(np.array([0.8, -0.5]), _orthonormal_columns(rng, sites, 2), g, p)
    kernel = tensor_power_kernel(factors).kernel + raw + raw.conj().T
    kernel -= _block_symmetrized(raw + raw.conj().T, p, sites)
    sym = _block_symmetrized(kernel, p, sites)
    assert np.max(np.abs(kernel - sym)) > 0.1
    phi = normalize(WaveFunction(g, rng.standard_normal(sites)
                                 + 1j * rng.standard_normal(sites)))
    basis = build_fock_basis(n, g, p)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    states = (ManyBodyState(basis, coeffs / np.linalg.norm(coeffs)),
              product_state_lift(phi, basis))
    got = [hartree_expectation(phi, factors),
           *(manybody_expectation(psi, factors) for psi in states)]
    for k in (kernel, sym):
        a = DenseKernel(p, k)
        oracle = [x_oracle(phi, a), *(x_n_oracle(psi, a) for psi in states)]
        assert got == pytest.approx(oracle, abs=1e-12)


def test_condensate_projector_tensor_power():
    g = LatticeGrid(1, 4, 4.0)
    phi = plane_wave(g, 1)
    a = condensate_projector(phi, p=2)
    assert a.u.shape == (4, 1)  # one column of the sites, not of sites^p
    u = phi.amplitudes
    expected = np.kron(np.outer(u, u.conj()), np.outer(u, u.conj()))
    assert np.max(np.abs(tensor_power_kernel(a).kernel - expected)) < 1e-12


def test_site_multiplier_norm_is_max_abs():
    g = LatticeGrid(1, 8, 8.0)
    a = site_multiplier(g, amplitude=1.5, mode=1)
    x = g.axis_coordinates()
    expected = np.max(np.abs(1.5 * np.cos(2 * np.pi * x / g.length)))
    assert np.abs(a.mu).max() == pytest.approx(expected, rel=1e-8)
    kernel = (a.u * a.mu) @ a.u.conj().T / g.cell_volume
    assert np.max(np.abs(kernel - _multiplier_kernel(g, 1.5, 1))) <= 1e-12


def test_site_multiplier_peak_is_what_it_keeps():
    g = LatticeGrid(3, 16, 16.0)  # 4,096 sites
    site_multiplier(LatticeGrid(1, 4, 4.0))  # first-call allocations are not the factors'
    tracemalloc.start()
    try:
        factors = site_multiplier(g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 2,744 columns pass the rank cut; a full identity and its column copy
    # peak at 2.49 times the 171.5 MiB U keeps
    assert factors.u.shape == (4096, 2744)
    assert peak <= 1.1 * held


@pytest.mark.parametrize("d, m", [(1, 4), (2, 3), (3, 2)])
@pytest.mark.parametrize("kind, p", [("projector", 1), ("projector", 2), ("projector", 3),
                                     ("multiplier", 1)])
def test_closed_form_factors_match_the_eigensolve_of_the_dense_kernel(d, m, kind, p):
    # h = 0.75 keeps every power of h visible; on 4 sites f has two roundoff zeros
    g = LatticeGrid(d, m, 0.75 * m)
    rng = np.random.default_rng(100 + 10 * d + p)

    def random_unit_state():
        return normalize(WaveFunction(g, rng.standard_normal(g.n_sites)
                                      + 1j * rng.standard_normal(g.n_sites)))

    if kind == "projector":
        phi = random_unit_state()
        closed, a = condensate_projector(phi, p), DenseKernel(p, _projector_kernel(phi, p))
    else:
        closed, a = site_multiplier(g, 1.5, 1), DenseKernel(1, _multiplier_kernel(g, 1.5, 1))
    dense_norm = np.abs(np.linalg.eigvalsh(g.cell_volume ** p * a.kernel)).max()
    assert np.abs(closed.mu).max() == pytest.approx(dense_norm, abs=1e-14)
    if p == 1:
        eigen = spectral_factors(a.kernel, g)
        assert np.abs(eigen.mu).max() == pytest.approx(dense_norm, abs=1e-14)
    psi = random_unit_state()
    assert hartree_expectation(psi, closed) == pytest.approx(x_oracle(psi, a), abs=1e-14)
    basis = build_fock_basis(p + 2, g, p)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    for state in (ManyBodyState(basis, coeffs / np.linalg.norm(coeffs)),
                  product_state_lift(psi, basis)):
        x_n = manybody_expectation(state, closed)
        assert x_n == pytest.approx(x_n_oracle(state, a), abs=1e-14)
        if p == 1:
            assert x_n == pytest.approx(manybody_expectation(state, eigen), abs=1e-14)


@pytest.mark.parametrize("scale", [0.5, 2.0, 1.0 + 1e-9])
def test_condensate_projector_rejects_a_state_that_is_not_a_unit_vector(scale):
    # a closed-form mu = (1,) holds only for a unit phi; else the norm would be |phi|^{2p}
    phi = gaussian_packet(LatticeGrid(1, 4, 4.0))
    assert condensate_projector(WaveFunction(phi.grid, (1 + 1e-13) * phi.amplitudes)).p == 1
    with pytest.raises(DomainError, match=r"^condensate projector requires a unit state, "
                                          r"norm = "):
        condensate_projector(WaveFunction(phi.grid, scale * phi.amplitudes), 2)


def test_spectral_factors_check_their_layout_and_hold_read_only_arrays():
    g = LatticeGrid(1, 4, 4.0)
    factors = SpectralFactors(np.ones(2), np.zeros((4, 2)), g, 2)
    stock = (condensate_projector(gaussian_packet(g), 2), site_multiplier(g))
    for arr in (factors.mu, factors.u, *(f.mu for f in stock), *(f.u for f in stock)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    with pytest.raises(DomainError, match=r"^observable particle count must be >= 1, got 0$"):
        SpectralFactors(np.ones(1), np.zeros((1, 1)), g, 0)
    # 16 rows, the sites^p of p = 2, are not the 4 sites of one column
    for mu, u, p in [(np.ones(2), np.zeros((16, 2)), 2), (np.ones(2), np.zeros((4, 3)), 2),
                     (np.ones((2, 1)), np.zeros((4, 2)), 1), (np.ones(1), np.zeros(4), 1)]:
        with pytest.raises(DimensionError, match=r"^factors of shapes .* do not fit 4 rows$"):
            SpectralFactors(mu, u, g, p)
