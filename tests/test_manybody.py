import ast
import itertools
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special

import mflab.hartree
import mflab.manybody
from mflab.errors import DimensionError, DomainError, ResourceError
from mflab.grid import (WaveFunction, build_grid, gaussian_packet,
                        lattice_dispersion, normalize, plane_wave)
from mflab.manybody import (ManyBodyState, _bessel_j, _chebyshev_degree, _rank,
                            _spectral_interval, assemble_hamiltonian,
                            build_fock_basis, energy_expectation,
                            evolve_manybody, interaction_matrix,
                            kinetic_matrix, manybody_expectation,
                            product_state_lift, reduced_density_matrix)
from mflab.observables import (PObservable, condensate_projector, lift_factor,
                               operator_norm)
from mflab.random_field import FieldSpec, RandomField, sample_field


def _field(grid, base="zero", mean=0.0, sigmas=(), seed=0):
    return sample_field(FieldSpec(base=base, gaussian_mean=mean,
                                  mode_stddevs=sigmas), seed, grid)


# --- basis ----------------------------------------------------------------

def test_basis_sizes():
    g5 = build_grid(1, 5, 5.0)
    assert len(build_fock_basis(1, g5)) == 5
    g3 = build_grid(1, 3, 3.0)
    assert len(build_fock_basis(2, g3)) == 6
    g8 = build_grid(1, 8, 8.0)
    assert len(build_fock_basis(3, g8)) == 120


def test_basis_matches_brute_force_enumeration():
    g = build_grid(1, 3, 3.0)
    basis = build_fock_basis(2, g)
    brute = sorted({occ for occ in itertools.product(range(3), repeat=3)
                    if sum(occ) == 2})
    assert [tuple(occ) for occ in basis.occupations.tolist()] == brute
    for i, s in enumerate(brute):
        assert basis.rank(s) == i


def test_basis_ordering_is_lexicographic():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(3, g)
    states = [tuple(occ) for occ in basis.occupations.tolist()]
    assert states == sorted(states)


@pytest.mark.parametrize("d,m,n", [(1, 8, 4), (2, 4, 3)])
def test_rank_round_trip(d, m, n):
    basis = build_fock_basis(n, build_grid(d, m, float(m)))
    assert np.array_equal(basis.rank(basis.occupations), np.arange(len(basis)))


def _reference_occupations(n, sites):
    """Stars and bars: the sites-1 bar positions in lexicographic order."""
    dim = math.comb(n + sites - 1, n)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n + sites - 1), sites - 1)),
        dtype=np.int64, count=dim * (sites - 1)).reshape(dim, sites - 1)
    return np.diff(bars, axis=1, prepend=-1, append=n + sites - 1) - 1


def _reference_annihilator(occ, n):
    """a_x stacked over x from COO triplets: rows x*dim(n-1) + rank(occ - e_x)."""
    dim, sites = occ.shape
    sub_dim = math.comb(n - 1 + sites - 1, n - 1)
    rows, cols, vals = [], [], []
    for x in range(sites):
        states = np.flatnonzero(occ[:, x])
        dest = occ[states]
        dest[:, x] -= 1
        rows.append(x * sub_dim + _rank(dest, n - 1))
        cols.append(states)
        vals.append(np.sqrt(occ[states, x]))
    return scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(sites * sub_dim, dim))


@pytest.mark.parametrize("d,m,n,p", [(1, 2, 3, 3), (1, 5, 1, 1), (1, 8, 8, 2),
                                     (2, 3, 2, 2), (2, 4, 4, 1), (3, 2, 3, 3),
                                     (2, 4, 5, 1)])
def test_basis_is_bitwise_the_sparse_product_construction(d, m, n, p):
    g = build_grid(d, m, 0.7 * m)  # spacing 0.7: products round, so their order shows
    basis = build_fock_basis(n, g, max_rdm_order=p)
    occ = _reference_occupations(n, g.n_sites)
    annihilators = [_reference_annihilator(_reference_occupations(n - k, g.n_sites), n - k)
                    for k in range(p)]
    t = kinetic_matrix(g).toarray()
    a = annihilators[0]
    hopping = scipy.sparse.kron(scipy.sparse.csr_matrix(t - np.diag(np.diag(t))),
                                scipy.sparse.identity(a.shape[0] // g.n_sites),
                                format="csr")
    # A^T (T_offdiag (x) 1) A = sum_{x != y} T_xy adag_x a_y, plus sum_x T_xx n_x
    one_body = (a.T @ (hopping @ a) + scipy.sparse.diags(occ @ np.diag(t))).tocsr()
    one_body.sort_indices()
    assert np.array_equal(basis.occupations, occ)
    assert len(basis.annihilators) == p
    for got, want in zip((basis.one_body, *basis.annihilators), (one_body, *annihilators)):
        assert got.shape == want.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def test_dimension_cap_enforced():
    g = build_grid(1, 8, 8.0)
    with pytest.raises(ResourceError, match=r"N=30.*M=8"):
        build_fock_basis(30, g)  # dimension 10,295,472


@pytest.mark.parametrize("d,m,n", [(1, 2, 300), (2, 4, 6)])
def test_occupations_are_narrow_and_weights_float64(d, m, n):
    g = build_grid(d, m, 2.0 * m)
    lower = build_fock_basis(n - 1, g, max_rdm_order=2)
    basis = build_fock_basis(n, g, max_rdm_order=2)
    occ = basis.occupations
    assert occ.dtype == np.min_scalar_type(n)  # uint16 at N=300, uint8 at N=6
    assert np.array_equal(basis.rank(occ), np.arange(len(basis)))
    # row x*dim(N-k-1) + j of annihilators[k] holds sqrt(n_x) of its column's
    # state in the N-k sector, i.e. sqrt(m_x + 1) for the state j below it
    for a, upper in zip(basis.annihilators, (basis, lower)):
        assert a.data.dtype == np.float64
        x = np.arange(a.shape[0]) // (a.shape[0] // g.n_sites)
        want = np.sqrt(upper.occupations[a.indices, x].astype(np.float64))
        assert np.array_equal(a.data, want)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", mean=0.3)
    values = np.asarray(v.values, dtype=np.float64).ravel()
    occ64 = occ.astype(np.int64)
    pair = ((occ64 @ interaction_matrix(g, values)) * occ64).sum(axis=1)
    np.testing.assert_allclose(assemble_hamiltonian(basis, v),
                               (pair - values[0] * n) / (2.0 * n),
                               rtol=1e-12, atol=1e-12)


def test_per_field_steps_allocate_o_dim_bytes():
    g = build_grid(2, 4, 8.0)  # the reach workload's N=6 sector
    basis = build_fock_basis(6, g, max_rdm_order=1)
    assert (len(basis), basis.sites) == (54_264, 16)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5,), seed=3)
    phi = gaussian_packet(g)
    limit = len(basis) * basis.sites * 8 / 2  # half of one (dim, sites) float64
    for step in (lambda: assemble_hamiltonian(basis, v),
                 lambda: product_state_lift(phi, basis)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_sector_build_makes_no_dense_sites_by_sites_operator():
    g = build_grid(2, 48, 48.0)  # 2,304 sites; the N = 1 sector is far under the cap
    tracemalloc.start()
    try:
        build_fock_basis(1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * g.n_sites ** 2  # one dense complex sites x sites array


def test_kinetic_diagonal_reads_the_occupations_in_bounded_blocks():
    # 4,096 sites and 4,096 states: a float64 copy of all occupations is 128 MiB
    g = build_grid(2, 64, 64.0)
    tracemalloc.start()
    try:
        build_fock_basis(1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def _import_parts(module):
    """Every dotted component named by an import statement of the module."""
    parts = set()
    for node in ast.walk(ast.parse(pathlib.Path(module.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in (getattr(node, "module", None) or "", *(a.name for a in node.names)):
                parts.update(name.split("."))
    return parts


def test_the_two_dynamics_do_not_import_each_other():
    # the exact and the mean-field dynamics meet only in ensemble
    assert "hartree" not in _import_parts(mflab.manybody)
    assert "manybody" not in _import_parts(mflab.hartree)


# --- Hamiltonian ----------------------------------------------------------

def test_single_particle_hamiltonian_is_kinetic_matrix():
    g = build_grid(1, 5, 5.0)
    v = _field(g, base="gaussian_bump(2.0, 1.0)", sigmas=(0.4,), seed=7)
    basis = build_fock_basis(1, g)
    h = assemble_hamiltonian(basis, v)
    # basis states are lexicographic: occupation at site (M-1-i) ... map explicitly
    t = kinetic_matrix(g).toarray()
    dense = basis.one_body.toarray() + np.diag(h)
    perm = basis.rank(np.eye(5, dtype=int))
    assert np.max(np.abs(dense[np.ix_(perm, perm)] - t)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_constant_interaction_shifts_by_scalar(n):
    g = build_grid(1, 4, 4.0)
    c = 0.9
    basis = build_fock_basis(n, g)
    kin = basis.one_body.toarray()
    h_const = kin + np.diag(assemble_hamiltonian(basis, _field(g, mean=c)))
    h_free = kin + np.diag(assemble_hamiltonian(basis, _field(g)))
    shift = c * (n - 1) / 2  # (1/N) * binom(N,2) * c
    assert np.max(np.abs(h_const - h_free - shift * np.eye(len(basis)))) < 1e-12


def _occupation_to_full(coeffs, basis, sites):
    """Fock coefficients -> first-quantized l2 tensor vector."""
    n = basis.n_particles
    full = np.zeros(sites ** n, dtype=complex)
    for tup in itertools.product(range(sites), repeat=n):
        occ = tuple(tup.count(x) for x in range(sites))
        w = math.sqrt(math.prod(math.factorial(k) for k in occ)
                      / math.factorial(n))
        flat = 0
        for x in tup:
            flat = flat * sites + x
        full[flat] = coeffs[basis.rank(occ)] * w
    return full


def _symmetrizer(n, sites):
    dim = sites ** n
    p = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        idx = np.zeros(dim, dtype=int)
        digits = []
        rest = np.arange(dim)
        for _ in range(n):
            digits.append(rest % sites)
            rest = rest // sites
        digits = digits[::-1]
        for pos in range(n):
            idx = idx * sites + digits[perm[pos]]
        p[np.arange(dim), idx] += 1.0
    return p / math.factorial(n)


def test_hamiltonian_matches_first_quantized_projection():
    g = build_grid(1, 3, 3.0)
    n = 2
    v = _field(g, base="gaussian_bump(1.0, 0.8)", sigmas=(0.6,), seed=11)
    basis = build_fock_basis(n, g)
    h2q = basis.one_body.toarray() + np.diag(assemble_hamiltonian(basis, v))

    t = kinetic_matrix(g).toarray()
    eye = np.eye(3)
    vv = v.values
    pair = np.array([vv[(x - y) % 3] for x in range(3) for y in range(3)])
    h_full = np.kron(t, eye) + np.kron(eye, t) + np.diag(pair) / n

    cols = np.array([_occupation_to_full(np.eye(6)[i], basis, 3)
                     for i in range(6)]).T.real
    h1q = cols.T @ h_full @ cols
    assert np.max(np.abs(h2q - h1q)) < 1e-12


@pytest.mark.parametrize("d, m, n", [(1, 6, 2), (1, 5, 3), (2, 3, 2), (2, 3, 3)])
def test_pair_diagonal_sees_only_the_even_part_of_v(d, m, n):
    # why every field is even: Hartree's v * |psi|^2 would see the odd part
    g = build_grid(d, m, 0.9 * m)
    v = np.random.default_rng(17).standard_normal(g.shape)
    even = 0.5 * (v + v[np.ix_(*[(-np.arange(m)) % m] * d)])
    assert not np.allclose(v, even)
    basis = build_fock_basis(n, g)
    h = assemble_hamiltonian(basis, RandomField(g, v.ravel()))
    h_even = assemble_hamiltonian(basis, RandomField(g, even.ravel()))
    assert np.allclose(h, h_even, rtol=0, atol=1e-13)


def test_hamiltonian_is_hermitian():
    g = build_grid(1, 4, 4.0)
    v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,), seed=13)
    basis = build_fock_basis(3, g)
    h = basis.one_body.toarray() + np.diag(assemble_hamiltonian(basis, v))
    assert abs(h - h.T).max() < 1e-12


# --- product state lift ---------------------------------------------------

def test_lift_fully_condensed():
    g = build_grid(1, 2, 2.0)
    phi = WaveFunction(g, np.array([g.h ** -0.5, 0.0], dtype=complex))
    basis = build_fock_basis(2, g)
    state = product_state_lift(phi, basis)
    expected = {(2, 0): 1.0, (1, 1): 0.0, (0, 2): 0.0}
    for occ, val in expected.items():
        assert state.coefficients[basis.rank(occ)] == pytest.approx(val, abs=1e-14)


def test_lift_uniform_two_site():
    g = build_grid(1, 2, 2.0)
    phi = normalize(WaveFunction(g, np.ones(2, dtype=complex)))
    basis = build_fock_basis(2, g)
    state = product_state_lift(phi, basis)
    got = {tuple(occ): c for occ, c in zip(basis.occupations.tolist(),
                                           state.coefficients)}
    assert got[(2, 0)] == pytest.approx(0.5, abs=1e-14)
    assert got[(1, 1)] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert got[(0, 2)] == pytest.approx(0.5, abs=1e-14)


@pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (5, 3)])
def test_lift_is_normalized(n, m):
    g = build_grid(1, m, float(m))
    rng = np.random.default_rng(n * m)
    phi = normalize(WaveFunction(g, rng.standard_normal(m)
                                 + 1j * rng.standard_normal(m)))
    state = product_state_lift(phi, build_fock_basis(n, g))
    assert abs(state.norm() - 1.0) < 1e-12


def test_nan_state_or_time_fails_the_domain_checks():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    with pytest.raises(DomainError, match="unit state"):
        product_state_lift(WaveFunction(g, np.full(4, np.nan)), basis)
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(DomainError, match="nonnegative"):
        evolve_manybody(psi, np.zeros(len(basis)), math.nan)
    psi.coefficients[0] = np.nan
    with pytest.raises(DomainError, match="normalized"):
        evolve_manybody(psi, np.zeros(len(basis)), 0.5)


def test_lift_rejects_unnormalized_state():
    g = build_grid(1, 3, 3.0)
    phi = WaveFunction(g, np.ones(3, dtype=complex))
    with pytest.raises(DomainError):
        product_state_lift(phi, build_fock_basis(2, g))


def test_lift_matches_full_tensor_power():
    g = build_grid(1, 3, 3.0)
    rng = np.random.default_rng(21)
    phi = normalize(WaveFunction(g, rng.standard_normal(3)
                                 + 1j * rng.standard_normal(3)))
    n = 3
    basis = build_fock_basis(n, g)
    state = product_state_lift(phi, basis)
    full = _occupation_to_full(state.coefficients, basis, 3)
    u = g.h ** 0.5 * phi.amplitudes
    tensor = u
    for _ in range(n - 1):
        tensor = np.kron(tensor, u)
    assert np.max(np.abs(full - tensor)) < 1e-12


# --- propagation ----------------------------------------------------------

def test_zero_time_propagation_is_identity():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    h = assemble_hamiltonian(basis, _field(g, sigmas=(0.5,), seed=2))
    psi = product_state_lift(gaussian_packet(g), basis)
    out = evolve_manybody(psi, h, 0.0)
    assert np.array_equal(out.coefficients, psi.coefficients)


def test_hamiltonian_shift_is_global_phase():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    h = assemble_hamiltonian(basis, _field(g, sigmas=(0.5,), seed=3))
    c, t = 1.3, 0.4
    shifted = h + c
    psi = product_state_lift(gaussian_packet(g), basis)
    a = evolve_manybody(psi, h, t)
    b = evolve_manybody(psi, shifted, t)
    assert np.max(np.abs(b.coefficients - np.exp(-1j * c * t) * a.coefficients)) < 1e-9
    obs = condensate_projector(gaussian_packet(g))
    assert manybody_expectation(a, obs) == pytest.approx(
        manybody_expectation(b, obs), abs=1e-9)


def _initial_states(g):
    """A real state, a plane wave and a Gaussian packet with a phase gradient."""
    x = g.axis_coordinates()
    return (gaussian_packet(g), plane_wave(g, 1),
            WaveFunction(g, gaussian_packet(g).amplitudes * np.exp(0.3j * x)))


KRYLOV_CASES = ((4, 2, 0.5), (8, 4, 4.0), (8, 4, 40.0))


def test_krylov_matches_dense_exponential():
    # dimension 10 at t = 0.5, dimension 330 at t = 4 (||tH||_1 ~ 42), and
    # dimension 330 at t = 40, where the Chebyshev degree runs to the hundreds
    for m, n, t in KRYLOV_CASES:
        g = build_grid(1, m, float(m))
        basis = build_fock_basis(n, g)
        v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,), seed=17)
        h = assemble_hamiltonian(basis, v)
        dense_h = basis.one_body.toarray() + np.diag(h)
        for phi in _initial_states(g):
            psi = product_state_lift(phi, basis)
            propagated = evolve_manybody(psi, h, t).coefficients
            dense = scipy.linalg.expm(-1j * t * dense_h) @ psi.coefficients
            assert np.linalg.norm(propagated - dense) < 1e-9
            assert abs(np.linalg.norm(propagated) - 1.0) < 1e-10


def _complex_chebyshev(psi0, h, t):
    """The Chebyshev sum of evolve_manybody as one recurrence on complex vectors."""
    f = psi0.coefficients
    mat = psi0.basis.one_body

    def matmul(vec):
        return (mat @ vec.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()

    c, r = _spectral_interval(psi0.basis, h)
    k = _chebyshev_degree(r * t)
    coef = 2.0 * np.array([1, -1j, -1, 1j])[np.arange(k + 1) % 4] * _bessel_j(r * t, k)
    coef[0] /= 2
    shift = h - c
    prev, cur = f, (matmul(f) + shift * f) / r
    out = coef[0] * prev + coef[1] * cur
    for a in coef[2:]:
        prev, cur = cur, (2.0 / r) * (matmul(cur) + shift * cur) - prev
        out += a * cur
    return out * np.exp(-1j * c * t)


def test_real_recurrence_is_the_complex_recurrence():
    for m, n, t in KRYLOV_CASES:
        g = build_grid(1, m, float(m))
        basis = build_fock_basis(n, g)
        v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,), seed=17)
        h = assemble_hamiltonian(basis, v)
        real, *complex_ = (product_state_lift(phi, basis) for phi in _initial_states(g))
        assert not real.coefficients.imag.any()
        assert np.array_equal(evolve_manybody(real, h, t).coefficients,
                              _complex_chebyshev(real, h, t))
        for psi in complex_:
            assert psi.coefficients.imag.any()
            got = evolve_manybody(psi, h, t).coefficients
            assert np.max(np.abs(got - _complex_chebyshev(psi, h, t))) < 1e-14


BESSEL_ARGUMENTS = (1e-3, 0.5, 3.0, 30.0, 120.0, 700.0)


@pytest.mark.parametrize("x", BESSEL_ARGUMENTS)
def test_bessel_coefficients_match_scipy(x):
    k = _chebyshev_degree(x)
    got = _bessel_j(x, k)
    assert got.shape == (k + 1,)
    assert np.max(np.abs(got - scipy.special.jv(np.arange(k + 1), x))) < 1e-13


@pytest.mark.parametrize("x", BESSEL_ARGUMENTS)
def test_chebyshev_degree_bounds_bessel_tail(x):
    k = _chebyshev_degree(x)
    # the terms past k + 200 are below 1e-300 for every x here
    tail = 2.0 * np.sum(np.abs(scipy.special.jv(np.arange(k + 1, k + 200), x)))
    assert tail <= 2.0 ** -53


@pytest.mark.parametrize("d,m,n", [(1, 2, 3), (1, 6, 3), (2, 3, 2)])
def test_gershgorin_interval_contains_spectrum(d, m, n):
    # the dGamma(T) + Weyl interval holds the spectrum and is no wider than
    # the Gershgorin interval of the same H
    g = build_grid(d, m, float(m))
    basis = build_fock_basis(n, g)
    v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,) * ((m - 1) // 2),
               seed=43)  # as many modes as the grid admits, none at m = 2
    h = assemble_hamiltonian(basis, v)
    dense = basis.one_body.toarray() + np.diag(h)
    radius = np.abs(dense - np.diag(np.diag(dense))).sum(axis=1)
    gershgorin = (np.max(np.diag(dense) + radius) - np.min(np.diag(dense) - radius)) / 2
    c, r = _spectral_interval(basis, h)
    evals = np.linalg.eigvalsh(dense)
    assert 0 < r <= gershgorin
    assert c - r <= evals[0] and evals[-1] <= c + r


@pytest.mark.parametrize("fill, t", [(np.nan, 0.5), (np.inf, 0.5), (0.0, 1e12)],
                         ids=["nan-h", "inf-h", "huge-t"])
def test_propagation_beyond_the_rt_cap_fails_before_the_degree_search(fill, t):
    # the degree grows like e*r*t/2, so an uncapped search on these would not end
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(ResourceError, match="beyond the cap"):
        evolve_manybody(psi, np.full(len(basis), fill), t)


def test_propagation_draws_no_random_numbers():
    # ||tH||_1 ~ 69, where scipy's expm_multiply draws from numpy's global RNG
    g = build_grid(1, 8, 8.0)
    basis = build_fock_basis(6, g)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3, 0.1), seed=5)
    h = assemble_hamiltonian(basis, v)
    psi = product_state_lift(gaussian_packet(g), basis)
    blobs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        blobs.append(evolve_manybody(psi, h, 4.0).coefficients.tobytes())
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    assert blobs[0] == blobs[1]


def test_propagation_is_unitary_and_conserves_energy():
    g = build_grid(1, 6, 6.0)
    basis = build_fock_basis(3, g)
    v = _field(g, base="gaussian_bump(1.0, 1.2)", sigmas=(0.5, 0.2), seed=19)
    h = assemble_hamiltonian(basis, v)
    psi = product_state_lift(gaussian_packet(g), basis)
    e0 = energy_expectation(psi, h)
    out = evolve_manybody(psi, h, 1.0)
    assert abs(out.norm() - 1.0) < 1e-10
    assert abs(energy_expectation(out, h) - e0) / abs(e0) < 1e-8


# --- reduced density matrices ---------------------------------------------

def test_rdm_of_product_state_is_projector():
    g = build_grid(1, 4, 4.0)
    rng = np.random.default_rng(23)
    phi = normalize(WaveFunction(g, rng.standard_normal(4)
                                 + 1j * rng.standard_normal(4)))
    psi = product_state_lift(phi, build_fock_basis(3, g))
    gamma = reduced_density_matrix(psi, 1)
    expected = np.outer(phi.amplitudes, phi.amplitudes.conj())
    assert np.max(np.abs(gamma - expected)) < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_rdm_trace_hermiticity_positivity(p):
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(3, g)
    rng = np.random.default_rng(29)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    coeffs /= np.linalg.norm(coeffs)
    psi = ManyBodyState(basis, coeffs)
    gamma = reduced_density_matrix(psi, p)
    trace = g.cell_volume ** p * np.trace(gamma)
    assert trace.real == pytest.approx(1.0, abs=1e-12)
    assert abs(trace.imag) < 1e-12
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(g.cell_volume ** p * gamma)
    assert np.min(evals) >= -1e-12


def _sparse_product_rdm(psi, p):
    """The p-RDM from products of the stacked annihilators with a complex block."""
    sites = psi.basis.sites
    w = psi.coefficients[:, None]
    for a in psi.basis.annihilators[:p]:
        flat = np.ascontiguousarray(w).view(np.float64)
        w = (a @ flat).view(np.complex128).reshape(sites, -1, w.shape[1])
        w = w.transpose(1, 2, 0).reshape(w.shape[1], -1)
    raw = sum(w[rows].T @ w[rows].conj() for rows in mflab.manybody._blocks(len(w)))
    n = psi.basis.n_particles
    scale = math.exp(math.lgamma(n - p + 1) - math.lgamma(n + 1))
    return (scale / psi.basis.grid.cell_volume ** p) * raw


@pytest.mark.parametrize("d,m,n,p", [(2, 4, 6, 1), (1, 8, 10, 2), (1, 4, 31, 3),
                                     (1, 3, 3, 3)])
def test_rdm_is_bitwise_the_sparse_product_rdm(d, m, n, p):
    # the first three have 15,504, 6,435 and 4,495 states in the N-p sector,
    # so several row blocks; the last has the vacuum alone
    g = build_grid(d, m, 2.0 * m)
    basis = build_fock_basis(n, g, max_rdm_order=p)
    rng = np.random.default_rng(37 + p)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    for psi in (ManyBodyState(basis, coeffs / np.linalg.norm(coeffs)),
                product_state_lift(gaussian_packet(g), basis)):
        assert np.array_equal(reduced_density_matrix(psi, p), _sparse_product_rdm(psi, p))


def test_rdm_streams_its_gathers():
    g = build_grid(2, 4, 8.0)  # the reach workload's N=6 sector
    basis = build_fock_basis(6, g, max_rdm_order=1)
    psi = product_state_lift(gaussian_packet(g), basis)
    sub_dim = basis.annihilators[0].shape[0] // basis.sites
    tracemalloc.start()
    try:
        reduced_density_matrix(psi, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.sites * sub_dim * 16  # the complex product a Psi, held whole


def test_rdm_domain_errors():
    g = build_grid(1, 3, 3.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(2, g))
    with pytest.raises(DomainError):
        reduced_density_matrix(psi, 3)


# --- expectations ---------------------------------------------------------

def _lifted_operator_dense(a, n, grid):
    """Dense N-body lift with the combinatorial prefactor and symmetrizers."""
    sites = grid.n_sites
    a_l2 = grid.cell_volume ** a.p * a.kernel
    full = np.kron(a_l2, np.eye(sites ** (n - a.p)))
    ps = _symmetrizer(n, sites)
    return lift_factor(n, a.p) * ps @ full @ ps


@pytest.mark.parametrize("p", [1, 2])
def test_expectation_matches_lifted_operator_oracle(p):
    g = build_grid(1, 3, 3.0)
    n = 3
    basis = build_fock_basis(n, g)
    rng = np.random.default_rng(31 + p)
    raw = (rng.standard_normal((3 ** p, 3 ** p))
           + 1j * rng.standard_normal((3 ** p, 3 ** p)))
    a = PObservable(p, raw + raw.conj().T)
    for trial in range(3):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        psi = ManyBodyState(basis, coeffs)
        full = _occupation_to_full(coeffs, basis, 3)
        oracle = np.vdot(full, _lifted_operator_dense(a, n, g) @ full).real
        got = manybody_expectation(psi, a)
        assert got == pytest.approx(oracle, abs=1e-10)


def test_expectation_of_initial_product_state():
    g = build_grid(1, 3, 3.0)
    n = 3
    phi = gaussian_packet(g)
    basis = build_fock_basis(n, g)
    psi = product_state_lift(phi, basis)
    for p in (1, 2):
        a = condensate_projector(phi, p=p)
        got = manybody_expectation(psi, a)
        # at t=0 the state is phi^(x)N, so Tr(a gamma) = <phi^p, a phi^p> = 1
        assert got == pytest.approx(lift_factor(n, p), abs=1e-12)


def test_single_particle_sector_is_free_evolution():
    g = build_grid(1, 8, 8.0)
    phi = gaussian_packet(g)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=37)
    basis = build_fock_basis(1, g)
    h = assemble_hamiltonian(basis, v)
    psi0 = product_state_lift(phi, basis)
    psi_t = evolve_manybody(psi0, h, 0.5)
    a = condensate_projector(phi)
    x1 = manybody_expectation(psi_t, a)
    # free lattice evolution via Fourier phases; interaction is absent at N=1
    spec = np.fft.fft(phi.amplitudes)
    free = np.fft.ifft(spec * np.exp(-1j * 0.5 * lattice_dispersion(g).ravel()))
    free_wf = WaveFunction(g, free)
    expected = abs(g.cell_volume * np.vdot(free_wf.amplitudes, phi.amplitudes)) ** 2
    assert x1 == pytest.approx(expected, abs=1e-9)


def test_expectation_respects_norm_bound():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(3, g)
    a = condensate_projector(gaussian_packet(g))
    bound = operator_norm(a, g)
    rng = np.random.default_rng(41)
    for _ in range(5):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        x = manybody_expectation(ManyBodyState(basis, coeffs), a)
        assert abs(x) <= bound + 1e-12


def test_expectation_rejects_observable_of_another_grid():
    g = build_grid(1, 4, 4.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(2, g))
    a = condensate_projector(gaussian_packet(build_grid(1, 5, 5.0)))
    with pytest.raises(DimensionError, match="does not match the basis grid"):
        manybody_expectation(psi, a)


def test_expectation_p_larger_than_n_rejected():
    g = build_grid(1, 3, 3.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(1, g))
    a = condensate_projector(gaussian_packet(g), p=2)
    with pytest.raises(DomainError):
        manybody_expectation(psi, a)


def test_assemble_rejects_mismatched_basis():
    g = build_grid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    with pytest.raises(DimensionError):
        assemble_hamiltonian(basis, _field(build_grid(1, 5, 5.0)))
    # a pair diagonal of another sector's length
    short = assemble_hamiltonian(build_fock_basis(1, g), _field(g))
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(DimensionError):
        evolve_manybody(psi, short, 0.5)
    with pytest.raises(DimensionError):
        energy_expectation(psi, short)
