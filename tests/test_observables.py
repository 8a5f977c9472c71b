import itertools
import math

import numpy as np
import pytest

from mflab.errors import DimensionError, DomainError
from mflab.grid import WaveFunction, build_grid, gaussian_packet, normalize, plane_wave
from mflab.hartree import hartree_expectation
from mflab.manybody import (ManyBodyState, build_fock_basis, manybody_expectation,
                            product_state_lift)
from mflab.observables import (PObservable, condensate_projector, lift_factor,
                               operator_norm, site_multiplier)


def test_lift_factor_p1_is_one():
    for n in (1, 2, 5, 17, 64):
        assert lift_factor(n, 1) == 1.0


def test_lift_factor_small_cases():
    # direct factorial arithmetic: N!/(N^p (N-p)!)
    assert lift_factor(3, 2) == pytest.approx(6 / (9 * 1), abs=1e-15)
    assert lift_factor(2, 2) == pytest.approx(2 / (4 * 1), abs=1e-15)


def test_lift_factor_matches_factorials():
    for n in range(1, 20):
        for p in range(1, n + 1):
            exact = math.factorial(n) / (n ** p * math.factorial(n - p))
            assert lift_factor(n, p) == pytest.approx(exact, rel=1e-13)


def test_lift_factor_range_and_monotonicity():
    for p in (1, 2, 3):
        vals = [lift_factor(n, p) for n in range(p, 65)]
        assert all(0 < v <= 1 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert lift_factor(64, 2) > 0.96  # approaches 1 for fixed p


def test_lift_factor_domain():
    with pytest.raises(DomainError):
        lift_factor(2, 3)
    with pytest.raises(DomainError):
        lift_factor(2, 0)


@pytest.mark.parametrize("p, kernel, error", [
    (0, np.eye(4), DomainError),
    (1, np.ones((4, 3)), DimensionError),
    (2, np.eye(8), DimensionError),  # 8 is not a square
])
def test_constructor_validates_the_kernel(p, kernel, error):
    with pytest.raises(error):
        PObservable(p, kernel)


def test_kernel_is_a_read_only_copy():
    g = build_grid(1, 8, 8.0)
    k = np.eye(8, dtype=complex)
    a = PObservable(1, k)
    k[0, 0] = 5.0
    assert np.array_equal(a.kernel, np.eye(8))
    assert operator_norm(a, g) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError, match="read-only"):
        a.kernel[0, 0] = 5.0


def test_operator_norm_rank_one_projector():
    g = build_grid(1, 8, 8.0)
    phi = gaussian_packet(g)
    a = condensate_projector(phi, p=1)
    assert operator_norm(a, g) == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_identity_kernel():
    g = build_grid(1, 8, 4.0)
    a = PObservable(1, np.eye(8) / g.cell_volume)
    assert operator_norm(a, g) == pytest.approx(1.0, abs=1e-8)


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


def test_operator_norm_p2_matches_dense_eigensolver():
    rng = np.random.default_rng(5)
    g = build_grid(1, 4, 4.0)
    raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    # a large eigenvalue on an antisymmetric vector, which the restriction
    # must not see
    anti = np.zeros(16)
    anti[0 * 4 + 1], anti[1 * 4 + 0] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    herm = raw + raw.conj().T + 100.0 * np.outer(anti, anti)
    a = PObservable(2, herm)
    basis = _symmetric_basis_p2(4)
    assert basis.shape == (16, 10)  # 10-dimensional symmetric subspace
    b = g.cell_volume ** 2 * a.kernel
    restricted = basis.T @ b @ basis
    dense = float(np.max(np.abs(np.linalg.eigvalsh(restricted))))
    assert operator_norm(a, g) == pytest.approx(dense, rel=1e-8)


def test_operator_norm_p3_matches_combinations_basis():
    # orthonormal symmetric basis from multisets of sites, independent of the
    # orbit construction in operator_norm
    rng = np.random.default_rng(17)
    sites, p = 3, 3
    g = build_grid(1, sites, 2.0)
    raw = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    # a large eigenvalue on the antisymmetric vector, which the restriction
    # must not see
    anti = np.zeros(27)
    for perm in itertools.permutations(range(p)):
        sign = np.linalg.det(np.eye(p)[list(perm)])
        anti[np.ravel_multi_index(perm, (sites,) * p)] = sign / math.sqrt(6)
    a = PObservable(p, raw + raw.conj().T + 100.0 * np.outer(anti, anti))
    cols = []
    for combo in itertools.combinations_with_replacement(range(sites), p):
        perms = set(itertools.permutations(combo))
        e = np.zeros(sites ** p)
        for perm in perms:
            e[np.ravel_multi_index(perm, (sites,) * p)] = 1.0 / math.sqrt(len(perms))
        cols.append(e)
    q = np.array(cols).T
    assert q.shape == (27, 10)
    restricted = q.T @ (g.cell_volume ** p * a.kernel) @ q
    dense = float(np.max(np.abs(np.linalg.eigvalsh(restricted))))
    assert operator_norm(a, g) == pytest.approx(dense, rel=1e-12)


def test_operator_norm_near_degenerate_site_multiplier():
    # the top two singular values, 1 and cos(pi/101), differ by about 5e-4;
    # the norm must still come out exactly
    g = build_grid(1, 101, 101.0)
    assert operator_norm(site_multiplier(g), g) == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_invariant_under_resymmetrization():
    rng = np.random.default_rng(13)
    g = build_grid(1, 4, 2.0)
    raw = rng.standard_normal((16, 16))
    # a large eigenvalue on an antisymmetric vector: swapping the blocks
    # keeps it, and the restriction must not see it
    anti = np.zeros(16)
    anti[1 * 4 + 2], anti[2 * 4 + 1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    a = PObservable(2, raw + raw.T + 100.0 * np.outer(anti, anti))
    swap = np.arange(16).reshape(4, 4).T.ravel()  # (x_1, x_2) -> (x_2, x_1)
    a2 = PObservable(2, a.kernel[np.ix_(swap, swap)])
    assert np.max(np.abs(a2.kernel - a.kernel)) > 0.1
    basis = _symmetric_basis_p2(4)
    restricted = basis.T @ (g.cell_volume ** 2 * a.kernel) @ basis
    dense = float(np.max(np.abs(np.linalg.eigvalsh(restricted))))
    assert operator_norm(a, g) == pytest.approx(dense, rel=1e-8)
    assert operator_norm(a2, g) == pytest.approx(dense, rel=1e-8)


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
    # kernels are kept as given: X, X_N and the norm see a kernel only on
    # bosonic states, so they must not change when it is block-symmetrized
    rng = np.random.default_rng(50 + p)
    sites, n = 4, 4
    g = build_grid(1, sites, 3.0)
    raw = (rng.standard_normal((sites ** p,) * 2)
           + 1j * rng.standard_normal((sites ** p,) * 2))
    kernel = raw + raw.conj().T
    sym = _block_symmetrized(kernel, p, sites)
    assert np.max(np.abs(kernel - sym)) > 0.1
    phi = normalize(WaveFunction(g, rng.standard_normal(sites)
                                 + 1j * rng.standard_normal(sites)))
    basis = build_fock_basis(n, g)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    states = (ManyBodyState(basis, coeffs / np.linalg.norm(coeffs)),
              product_state_lift(phi, basis))
    given, symmetrized = (
        [hartree_expectation(phi, a), *(manybody_expectation(psi, a) for psi in states),
         operator_norm(a, g)]
        for a in (PObservable(p, kernel), PObservable(p, sym)))
    assert given == pytest.approx(symmetrized, abs=1e-12)


def test_condensate_projector_tensor_power():
    g = build_grid(1, 4, 4.0)
    phi = plane_wave(g, 1)
    a = condensate_projector(phi, p=2)
    u = phi.amplitudes
    expected = np.kron(np.outer(u, u.conj()), np.outer(u, u.conj()))
    assert np.max(np.abs(a.kernel - expected)) < 1e-12
    assert np.max(np.abs(a.kernel - a.kernel.conj().T)) <= 1e-12


def test_site_multiplier_norm_is_max_abs():
    g = build_grid(1, 8, 8.0)
    a = site_multiplier(g, amplitude=1.5, mode=1)
    x = g.axis_coordinates()
    expected = np.max(np.abs(1.5 * np.cos(2 * np.pi * x / g.length)))
    assert operator_norm(a, g) == pytest.approx(expected, rel=1e-8)
    assert np.max(np.abs(a.kernel - a.kernel.conj().T)) <= 1e-12
