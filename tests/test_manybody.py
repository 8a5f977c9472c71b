import ast
import dataclasses
import functools
import itertools
import math
import pathlib
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.special
import scipy.stats

import mflab.hartree
import mflab.manybody
from mflab.errors import DimensionError, DomainError, ResourceError
from mflab.grid import (LatticeGrid, WaveFunction, gaussian_packet,
                        lattice_dispersion, normalize, plane_wave)
from mflab.hartree import hartree_energy, hartree_expectation
from mflab.manybody import (ManyBodyState, _add_particle, _bessel_j,
                            _chebyshev_degree, _enumerate, _rank,
                            _spectral_interval, assemble_hamiltonian,
                            build_fock_basis, energy_expectation, fock_dimension,
                            evolve_manybody, interaction_matrix, manybody_expectation,
                            product_state_lift, reduced_density_matrix)
from mflab.observables import (SpectralFactors, condensate_projector, site_multiplier,
                               spectral_factors)
from mflab.random_field import FieldSpec, RandomField, sample_field
from oracles import (DenseKernel, composed_gather, composed_rdm, interaction_matrix_oracle,
                     kinetic_oracle, occupation_to_full, random_tensor_factors, symmetrizer,
                     tensor_power_kernel, x_n_oracle, x_oracle)


def _field(grid, base="zero", mean=0.0, sigmas=(), seed=0):
    return sample_field(FieldSpec(base=base, gaussian_mean=mean,
                                  mode_stddevs=sigmas), seed, grid)


# --- basis ----------------------------------------------------------------

def test_basis_sizes():
    g5 = LatticeGrid(1, 5, 5.0)
    assert len(build_fock_basis(1, g5)) == 5
    g3 = LatticeGrid(1, 3, 3.0)
    assert len(build_fock_basis(2, g3)) == 6
    g8 = LatticeGrid(1, 8, 8.0)
    assert len(build_fock_basis(3, g8)) == 120


@pytest.mark.parametrize("order", [0, -1])
def test_basis_rejects_an_rdm_order_below_one(order):
    with pytest.raises(DomainError, match=rf"need 1 <= p <= N, got p={order}, N=2$"):
        build_fock_basis(2, LatticeGrid(1, 3, 3.0), order)


@pytest.mark.parametrize("n", [1, 3])
def test_basis_rejects_an_rdm_order_above_n(n):
    # a state of N particles has no (N+1)-particle reduced density matrix
    with pytest.raises(DomainError, match=rf"need 1 <= p <= N, got p={n + 1}, N={n}$"):
        build_fock_basis(n, LatticeGrid(1, 3, 3.0), n + 1)


def test_basis_matches_brute_force_enumeration():
    g = LatticeGrid(1, 3, 3.0)
    basis = build_fock_basis(2, g)
    brute = sorted({occ for occ in itertools.product(range(3), repeat=3)
                    if sum(occ) == 2})
    assert [tuple(occ) for occ in basis.occupations.tolist()] == brute
    for i, s in enumerate(brute):
        assert _rank(s, basis.n_particles) == i


def test_basis_ordering_is_lexicographic():
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(3, g)
    states = [tuple(occ) for occ in basis.occupations.tolist()]
    assert states == sorted(states)


@pytest.mark.parametrize("d,m,n", [(1, 8, 4), (2, 4, 3)])
def test_rank_round_trip(d, m, n):
    basis = build_fock_basis(n, LatticeGrid(d, m, float(m)))
    assert np.array_equal(_rank(basis.occupations, basis.n_particles),
                          np.arange(len(basis)))


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


def _reference_gather(n, g, p):
    """a_{x_p}...a_{x_1} as one sparse product of the stacked reference maps,
    (1 (x) a_p) ... (1 (x) a_2) a_1, the identities over x_1..x_{k-1}: row
    (x_1..x_p) * dim(N-p) + m, in row-major order of X, has one entry."""
    sites, gather = g.n_sites, None
    for k in range(p):
        a = _reference_annihilator(_reference_occupations(n - k, sites), n - k)
        gather = a if k == 0 else scipy.sparse.kron(
            scipy.sparse.identity(sites ** k), a, format="csr") @ gather
    assert gather.nnz == gather.shape[0]
    return gather.tocsr()


def _reference_gather_arrays(n, g, p):
    """The reference gather's indices and weights as (dim(N-p), sites^p) arrays."""
    gather = _reference_gather(n, g, p)
    return (arr.reshape(g.n_sites ** p, -1).T for arr in (gather.indices, gather.data))


@pytest.mark.parametrize("d,m,n,p", [(1, 2, 3, 3), (1, 5, 1, 1), (1, 8, 8, 2),
                                     (2, 3, 2, 2), (2, 4, 4, 1), (3, 2, 3, 3),
                                     (2, 4, 5, 1)])
def test_basis_is_bitwise_the_sparse_product_construction(d, m, n, p):
    g = LatticeGrid(d, m, 0.7 * m)  # spacing 0.7: products round, so their order shows
    basis = build_fock_basis(n, g, p)
    occ = _reference_occupations(n, g.n_sites)
    t = kinetic_oracle(g)
    a = _reference_annihilator(occ, n)
    hopping = scipy.sparse.kron(scipy.sparse.csr_matrix(t - np.diag(np.diag(t))),
                                scipy.sparse.identity(a.shape[0] // g.n_sites),
                                format="csr")
    # A^T (T_offdiag (x) 1) A = sum_{x != y} T_xy adag_x a_y
    one_body = (a.T @ (hopping @ a)).tocsr()
    one_body.sort_indices()
    assert np.array_equal(basis.occupations, occ)
    assert basis.one_body.shape == one_body.shape
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(basis.one_body, attr), getattr(one_body, attr)), attr
    idx, wt = _reference_gather_arrays(n, g, p)
    assert basis.p == p
    # the p held gathers compose to the reference's gather of order p
    got_idx, got_wt = composed_gather(basis)
    assert np.array_equal(got_idx, idx)
    assert np.array_equal(got_wt, wt)
    # no diagonal entry, and one entry per neighbour y of x for each entry of a
    rows = np.repeat(np.arange(len(occ)), np.diff(basis.one_body.indptr))
    assert not np.any(basis.one_body.indices == rows)
    assert basis.one_body.nnz == (np.count_nonzero(t[0]) - 1) * a.nnz


@pytest.mark.parametrize("d,m,n,p", [(1, 8, 6, 1), (2, 4, 4, 2), (1, 7, 5, 3)])
def test_block_rows_are_the_representatives_and_their_orbit_sizes(d, m, n, p):
    g = LatticeGrid(d, m, 0.7 * m)
    full, block = build_fock_basis(n, g, p), build_fock_basis(n, g, p, halved=True)
    mirrored = _rank(full.occupations[:, g.inversion()], n)
    rep = mirrored >= np.arange(len(full))
    assert np.array_equal(block.occupations, full.occupations[rep])
    assert np.array_equal(block.multiplicity, np.where(mirrored[rep] == np.flatnonzero(rep),
                                                       1, 2))
    assert block.multiplicity.sum() == len(full)  # every state is in one orbit
    # the top gather reads each state's representative, with the same weights,
    # and the gathers below it are those of the whole sectors
    reps = np.flatnonzero(rep)
    (block_idx, block_wt), *block_lower = block.gathers
    (full_idx, full_wt), *full_lower = full.gathers
    assert np.array_equal(reps[block_idx], np.minimum(full_idx, mirrored[full_idx]))
    assert np.array_equal(block_wt, full_wt)
    for got, want in zip(block_lower, full_lower, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # one_body's rows are the full rows of the representatives, columns folded
    fold = scipy.sparse.csr_matrix(
        (np.ones(len(full)), (np.arange(len(full)), np.searchsorted(
            reps, np.minimum(np.arange(len(full)), mirrored)))), shape=(len(full), len(block)))
    np.testing.assert_allclose(block.one_body.toarray(),
                               (full.one_body[reps] @ fold).toarray(), rtol=0, atol=1e-14)
    assert (block.halved, full.halved) == (True, False)
    for arr in (block.multiplicity, full.multiplicity):
        assert not arr.flags.writeable


@pytest.mark.parametrize("d,m,n,p", [(1, 4, 80, 1), (2, 4, 6, 1), (1, 8, 8, 2), (1, 2, 5, 3)])
def test_a_whole_sector_takes_its_orbits_without_ranking(monkeypatch, d, m, n, p):
    # every state is its own orbit: no rank of a mirrored sector, no climb
    def refuse(*args):
        raise AssertionError("a whole sector ranked its mirror image")

    monkeypatch.setattr(mflab.manybody, "_rank", refuse)
    g = LatticeGrid(d, m, float(m))
    basis = build_fock_basis(n, g, p)
    assert len(basis) == fock_dimension(n, g.n_sites)
    assert basis.multiplicity.dtype == np.uint8
    assert np.array_equal(basis.multiplicity, np.ones(len(basis)))


def test_norm_and_energy_weight_each_row_by_its_orbit():
    g = LatticeGrid(1, 8, 8.0)
    full, block = build_fock_basis(4, g), build_fock_basis(4, g, 1, halved=True)
    phi = gaussian_packet(g)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=5)
    lifted = [product_state_lift(phi, b) for b in (full, block)]
    # the block holds about half the coefficients, but weighs them to norm 1
    assert np.linalg.norm(lifted[1].coefficients) < 0.9
    assert abs(lifted[1].norm() - 1.0) < 1e-13
    e_full, e_block = (energy_expectation(psi, assemble_hamiltonian(psi.basis, v))
                       for psi in lifted)
    assert abs(e_block - e_full) < 1e-13 * abs(e_full)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3])
def test_interaction_matrix_is_bitwise_the_coordinate_difference_oracle(d, m):
    g = LatticeGrid(d, m, float(m))
    values = np.random.default_rng(10 * d + m).standard_normal(g.n_sites)
    v = interaction_matrix(g, values)
    assert v.dtype == np.float64
    assert np.array_equal(v, interaction_matrix_oracle(g, values))


def test_interaction_matrix_peak_is_two_sites_by_sites_arrays():
    g = LatticeGrid(3, 8, 8.0)  # 512 sites; the (d, s, s) difference alone is 24 s^2
    values = np.random.default_rng(3).standard_normal(g.n_sites)
    tracemalloc.start()
    try:
        interaction_matrix(g, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * g.n_sites ** 2 + 2 ** 20


def _refused_peak(n, grid):
    """The tracemalloc peak of build_fock_basis(n, grid), which must refuse the
    sector with a ResourceError for its int32 indices."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=rf"^the N={n} sector on {grid.n_sites} "
                                                r"sites needs [\d,]+ int32 hopping indices"):
            build_fock_basis(n, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_int32_index_check_refuses_a_sector_before_enumerating_it():
    # a site on M = 2 has d neighbours: degree * sites * dim(N-1) = 1 * 2 * 2^30
    # = 2^31 hopping entries; the sector would hold 2^30 + 1 states and 24 GiB
    # of gathers
    assert _refused_peak(2 ** 30, LatticeGrid(1, 2, 2.0)) < 2 ** 20


def test_int32_index_check_admits_a_sector_below_its_bound(monkeypatch):
    # 1 * 2 * 2^29 = 2^30 entries fit, though 2d * sites * dim(N-1) would not;
    # the check passes when the sector is enumerated, here stopped before it
    class Enumerated(Exception):
        pass

    def stop(n, sites):
        raise Enumerated

    monkeypatch.setattr(mflab.manybody, "_enumerate", stop)
    with pytest.raises(Enumerated):
        build_fock_basis(2 ** 29, LatticeGrid(1, 2, 2.0))


@pytest.mark.parametrize("d,m,n", [(1, 2, 300), (2, 4, 6)])
def test_occupations_are_narrow_and_weights_float64(d, m, n):
    g = LatticeGrid(d, m, 2.0 * m)
    basis = build_fock_basis(n, g, 2)
    occ = basis.occupations
    assert occ.dtype == np.min_scalar_type(n)  # uint16 at N=300, uint8 at N=6
    assert np.array_equal(_rank(occ, basis.n_particles), np.arange(len(basis)))
    # column (x_1, x_2) of row m weighs a_{x_2} a_{x_1} by sqrt(n_{x_1}) of the
    # gathered state, then sqrt(n_{x_2}) of that state less one particle at x_1
    assert all(wt.dtype == np.float64 for _, wt in basis.gathers)
    x_1, x_2 = np.indices((g.n_sites,) * 2).reshape(2, -1)
    idx, wt = composed_gather(basis)
    n_1 = occ[idx, x_1].astype(np.float64)
    n_2 = occ[idx, x_2] - (x_1 == x_2).astype(np.float64)
    assert np.array_equal(wt, np.sqrt(n_1) * np.sqrt(n_2))
    v = _field(g, base="gaussian_bump(1.0, 1.5)", mean=0.3)
    values = np.asarray(v.values, dtype=np.float64).ravel()
    occ64 = occ.astype(np.int64)
    pair = ((occ64 @ interaction_matrix(g, values)) * occ64).sum(axis=1)
    np.testing.assert_allclose(assemble_hamiltonian(basis, v),
                               (pair - values[0] * n) / (2.0 * n) + n * 2 * d / g.h ** 2,
                               rtol=1e-12, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _brute_force_sector(d, m, n, p):
    """Occupations, one_body and gather of the N sector, entry by entry from the
    itertools occupations, each product rounded in the build's order.

    one_body's row i, an occupied x and a neighbour y of x hold T_xy a_y a_x
    at the rank of i - e_x + e_y; gather column X = (x_1..x_p) of the N-p
    state m is the rank of m + sum_k e_{x_k}, weighed by f_1 ... f_p left to
    right, f_k = sqrt(n_{x_k}) of that state less x_1..x_{k-1}.
    """
    g = LatticeGrid(d, m, 0.7 * m)
    sites = g.n_sites

    def sector(k):
        return sorted(tuple(np.bincount(c, minlength=sites).tolist())
                      for c in itertools.combinations_with_replacement(range(sites), k))

    states = sector(n)
    rank = {s: i for i, s in enumerate(states)}
    t = kinetic_oracle(g)
    hops = [[(y, t[x, y]) for y in np.flatnonzero(t[x]) if y != x] for x in range(sites)]
    rows, cols, vals = [], [], []
    for i, s in enumerate(states):
        for x in range(sites):
            if s[x]:
                for y, t_xy in hops[x]:
                    dest = list(s)
                    dest[x] -= 1
                    dest[y] += 1
                    # a_y = sqrt(n_y + 1) and a_x = sqrt(n_x) on i
                    rows.append(i)
                    cols.append(rank[tuple(dest)])
                    vals.append(t_xy * math.sqrt(dest[y]) * math.sqrt(s[x]))
    one_body = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(states),) * 2)
    one_body.sort_indices()
    lower = sector(n - p)
    idx = np.empty((len(lower), sites ** p), dtype=np.int64)
    wt = np.empty(idx.shape)
    for row, low in enumerate(lower):
        for col, xs in enumerate(itertools.product(range(sites), repeat=p)):
            s = list(low)
            for x in xs:
                s[x] += 1
            idx[row, col] = rank[tuple(s)]
            w = 1.0  # 1.0 * f_1 is f_1
            for x in xs:
                w *= math.sqrt(s[x])
                s[x] -= 1
            wt[row, col] = w
    return states, one_body, idx, wt


# d = 1-3, M = 2-4 and p = 1-3, N = p (the vacuum as the N-p sector) included
@pytest.mark.parametrize("d,m,n,p", [(1, 2, 1, 1), (1, 3, 2, 2), (1, 4, 3, 3),
                                     (1, 2, 9, 3), (1, 4, 12, 2), (2, 2, 4, 1),
                                     (2, 3, 4, 2), (2, 4, 3, 3), (2, 4, 5, 1),
                                     (3, 2, 3, 3), (3, 3, 3, 2), (3, 4, 2, 1)])
@pytest.mark.parametrize("block_rows", [4096, 5])
def test_build_matches_a_brute_force_sector_entry_by_entry(monkeypatch, d, m, n, p,
                                                           block_rows):
    # 5 rows a block: every step spans several blocks, and most end short
    monkeypatch.setattr(mflab.manybody, "_BLOCK_ROWS", block_rows)
    basis = build_fock_basis(n, LatticeGrid(d, m, 0.7 * m), p)
    states, one_body, idx, wt = _brute_force_sector(d, m, n, p)
    assert basis.occupations.dtype == np.min_scalar_type(n)
    assert basis.occupations.tolist() == [list(s) for s in states]
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(basis.one_body, attr), getattr(one_body, attr)), attr
    assert basis.one_body.indptr.dtype == basis.one_body.indices.dtype == np.int32
    assert all(i.dtype == np.int32 and w.dtype == np.float64 for i, w in basis.gathers)
    got_idx, got_wt = composed_gather(basis)
    assert np.array_equal(got_idx, idx) and np.array_equal(got_wt, wt)


def test_build_climbs_only_its_last_p_steps(monkeypatch):
    steps, totals = [], []

    def recording_step(occ, n):
        steps.append((len(occ), n))
        return _add_particle(occ, n)

    def recording_enumerate(n, sites):
        totals.append(n)
        return _enumerate(n, sites)

    monkeypatch.setattr(mflab.manybody, "_add_particle", recording_step)
    monkeypatch.setattr(mflab.manybody, "_enumerate", recording_enumerate)
    build_fock_basis(80, LatticeGrid(1, 4, 4.0), 3)
    # the sectors N-p = 77..80 are enumerated, none below; only the steps
    # between them add a particle
    assert totals == [77, 78, 79, 80]
    assert steps == [(math.comb(80, 3), 78), (math.comb(81, 3), 79), (math.comb(82, 3), 80)]


def test_build_of_a_sector_in_extreme_shapes():
    start = time.perf_counter()
    basis = build_fock_basis(100_000, LatticeGrid(1, 2, 2.0))
    # a recursion of O(N^2) Python steps would take hours here
    assert time.perf_counter() - start < 5
    j = np.arange(100_001)
    assert basis.occupations.dtype == np.uint32
    assert np.array_equal(basis.occupations, np.column_stack([j, 100_000 - j]))
    # one particle: (0..0, 1), ..., (1, 0..0)
    g = LatticeGrid(3, 3, 3.0)
    assert np.array_equal(build_fock_basis(1, g).occupations, np.eye(27)[::-1])
    # many particles on 3 sites, and the least N whose 2d * sites * dim(N-1)
    # reaches 2^31 there, refused before it is enumerated
    g = LatticeGrid(1, 3, 3.0)
    n = 630
    basis = build_fock_basis(n, g)
    assert len(basis) == 199_396
    assert np.array_equal(_rank(basis.occupations, n), np.arange(len(basis)))
    occ = basis.occupations.astype(np.int64)
    assert np.all(occ.sum(axis=1) == n)
    assert np.array_equal(np.lexsort(occ.T[::-1]), np.arange(len(occ)))
    least = min(k for k in range(1, 10 ** 5) if 6 * math.comb(k + 1, 2) >= 2 ** 31)
    assert least == 26_755
    assert _refused_peak(least, g) < 2 ** 20


def test_build_peak_is_bounded_by_what_the_sector_keeps():
    g = LatticeGrid(1, 4, 4.0)  # configs/large_n.cfg's largest sector, dimension 91,881
    build_fock_basis(2, g)  # first-call allocations are not the sector's
    tracemalloc.start()
    try:
        basis = build_fock_basis(80, g)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(basis) == 91_881
    # a build with (dim, sites) int64 temporaries peaks at 2.09 times what it
    # keeps, and one with a CSC copy of the top annihilator at 1.43 times
    assert peak <= 1.2 * held


def test_add_particle_holds_no_sector_sized_int64_temporary():
    g = LatticeGrid(1, 4, 4.0)
    occ = build_fock_basis(79, g).occupations
    tracemalloc.start()
    try:
        idx, wt = _add_particle(occ, 80)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx.shape == wt.shape == occ.shape
    assert idx.flags.c_contiguous and wt.flags.c_contiguous
    # the rank arithmetic runs on row blocks, so what it holds beside its
    # outputs is far below one (dim(N-1), sites) int64 array
    assert peak - held < occ.shape[0] * occ.shape[1] * 8 / 2


def test_sector_holds_the_top_annihilator_once_as_its_gather():
    g = LatticeGrid(2, 4, 8.0)  # the reach workload's N=6 sector, p = 1
    build_fock_basis(2, g)  # first-call allocations are not the sector's
    tracemalloc.start()
    try:
        basis = build_fock_basis(6, g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    sub_dim = math.comb(5 + g.n_sites - 1, 5)
    top = g.n_sites * sub_dim * (4 + 8)  # a_x's gather: an int32 index, a float64 weight
    (idx, wt), = basis.gathers
    assert idx.shape == (sub_dim, g.n_sites)
    assert idx.nbytes + wt.nbytes == top
    ob = basis.one_body
    rest = basis.occupations.nbytes + ob.data.nbytes + ob.indices.nbytes + ob.indptr.nbytes
    # a second copy of the top gather, in any format, would add `top` more
    assert held < rest + top + top / 4
    assert idx.flags.c_contiguous and wt.flags.c_contiguous


def test_sector_holds_its_p_single_step_gathers_and_no_composition():
    # p = 4 on 8 sites: the composed gather, 12 * dim(N-4) * 8^4 bytes, peaked
    # the build at 34.23 MiB; the four single steps take 0.57 MiB
    g = LatticeGrid(1, 8, 8.0)
    build_fock_basis(2, g)  # first-call allocations are not the sector's
    tracemalloc.start()
    try:
        basis = build_fock_basis(8, g, 4, halved=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert [idx.shape for idx, _ in basis.gathers] == [
        (math.comb(n - 1 + 7, 7), 8) for n in (8, 7, 6, 5)]
    for arr in sum(basis.gathers, ()):
        assert not arr.flags.writeable


def test_per_field_steps_allocate_o_dim_bytes():
    g = LatticeGrid(2, 4, 8.0)  # the reach workload's N=6 sector
    basis = build_fock_basis(6, g)
    assert (len(basis), g.n_sites) == (54_264, 16)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5,), seed=3)
    phi = gaussian_packet(g)
    limit = len(basis) * g.n_sites * 8 / 2  # half of one (dim, sites) float64
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
    g = LatticeGrid(2, 48, 48.0)  # 2,304 sites; the N = 1 sector is far under the cap
    tracemalloc.start()
    try:
        build_fock_basis(1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * g.n_sites ** 2  # one dense complex sites x sites array


def test_kinetic_diagonal_reads_the_occupations_in_bounded_blocks():
    # 4,096 sites and 4,096 states: a float64 copy of all occupations is 128 MiB;
    # one_body has no diagonal, so this bounds the whole N = 1 build
    g = LatticeGrid(2, 64, 64.0)
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
    g = LatticeGrid(1, 5, 5.0)
    v = _field(g, base="gaussian_bump(2.0, 1.0)", sigmas=(0.4,), seed=7)
    basis = build_fock_basis(1, g)
    h = assemble_hamiltonian(basis, v)
    # basis states are lexicographic: occupation at site (M-1-i) ... map explicitly
    t = kinetic_oracle(g)
    dense = basis.one_body.toarray() + np.diag(h)
    perm = _rank(np.eye(5, dtype=int), basis.n_particles)
    assert np.max(np.abs(dense[np.ix_(perm, perm)] - t)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_constant_interaction_shifts_by_scalar(n):
    g = LatticeGrid(1, 4, 4.0)
    c = 0.9
    basis = build_fock_basis(n, g)
    kin = basis.one_body.toarray()
    h_const = kin + np.diag(assemble_hamiltonian(basis, _field(g, mean=c)))
    h_free = kin + np.diag(assemble_hamiltonian(basis, _field(g)))
    shift = c * (n - 1) / 2  # (1/N) * binom(N,2) * c
    assert np.max(np.abs(h_const - h_free - shift * np.eye(len(basis)))) < 1e-12


@pytest.mark.parametrize("d,m,length,n", [(1, 8, 8.0, 1), (1, 8, 8.0, 2), (1, 8, 8.0, 4),
                                          (1, 8, 8.0, 6), (2, 4, 8.0, 1), (2, 4, 8.0, 2),
                                          (2, 4, 8.0, 3), (1, 5, 3.5, 2), (1, 5, 3.5, 5)])
def test_product_state_energy_is_the_hartree_energy_with_n_minus_1_pairs(d, m, length, n):
    # <phi^N, H phi^N> = N <phi, T phi> + (N - 1) pot, with pot the interaction
    # half of the Hartree energy, since (1/N) sum_{i<j} v counts N(N-1)/2 pairs
    g = LatticeGrid(d, m, length)
    rng = np.random.default_rng(5)
    random_phi = normalize(WaveFunction(g, rng.normal(size=g.n_sites)
                                        + 1j * rng.normal(size=g.n_sites)))
    basis = build_fock_basis(n, g)
    for phi in (gaussian_packet(g), random_phi):
        psi = product_state_lift(phi, basis)
        for seed in (1, 2):
            v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5,), seed=seed)
            e_mf = hartree_energy(phi, v)
            pot = e_mf - hartree_energy(phi, _field(g))
            assert pot != 0
            e_n = energy_expectation(psi, assemble_hamiltonian(basis, v)) / n
            assert abs(e_n - (e_mf - pot / n)) <= 1e-12 * abs(e_mf)


def test_hamiltonian_matches_first_quantized_projection():
    g = LatticeGrid(1, 3, 3.0)
    n = 2
    v = _field(g, base="gaussian_bump(1.0, 0.8)", sigmas=(0.6,), seed=11)
    basis = build_fock_basis(n, g)
    h2q = basis.one_body.toarray() + np.diag(assemble_hamiltonian(basis, v))

    t = kinetic_oracle(g)
    eye = np.eye(3)
    vv = v.values
    pair = np.array([vv[(x - y) % 3] for x in range(3) for y in range(3)])
    h_full = np.kron(t, eye) + np.kron(eye, t) + np.diag(pair) / n

    cols = np.array([occupation_to_full(np.eye(6)[i], basis, 3)
                     for i in range(6)]).T.real
    h1q = cols.T @ h_full @ cols
    assert np.max(np.abs(h2q - h1q)) < 1e-12


@pytest.mark.parametrize("d, m, n", [(1, 6, 2), (1, 5, 3), (2, 3, 2), (2, 3, 3)])
def test_pair_diagonal_sees_only_the_even_part_of_v(d, m, n):
    # why every field is even: Hartree's v * |psi|^2 would see the odd part
    g = LatticeGrid(d, m, 0.9 * m)
    v = np.random.default_rng(17).standard_normal(g.shape)
    even = 0.5 * (v + v[np.ix_(*[(-np.arange(m)) % m] * d)])
    assert not np.allclose(v, even)
    basis = build_fock_basis(n, g)
    h = assemble_hamiltonian(basis, RandomField(g, v.ravel()))
    h_even = assemble_hamiltonian(basis, RandomField(g, even.ravel()))
    assert np.allclose(h, h_even, rtol=0, atol=1e-13)


def test_hamiltonian_is_hermitian():
    g = LatticeGrid(1, 4, 4.0)
    v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,), seed=13)
    basis = build_fock_basis(3, g)
    h = basis.one_body.toarray() + np.diag(assemble_hamiltonian(basis, v))
    assert abs(h - h.T).max() < 1e-12


# --- product state lift ---------------------------------------------------

def test_lift_fully_condensed():
    g = LatticeGrid(1, 2, 2.0)
    phi = WaveFunction(g, np.array([g.h ** -0.5, 0.0], dtype=complex))
    basis = build_fock_basis(2, g)
    state = product_state_lift(phi, basis)
    expected = {(2, 0): 1.0, (1, 1): 0.0, (0, 2): 0.0}
    for occ, val in expected.items():
        rank = _rank(occ, basis.n_particles)
        assert state.coefficients[rank] == pytest.approx(val, abs=1e-14)


def test_lift_uniform_two_site():
    g = LatticeGrid(1, 2, 2.0)
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
    g = LatticeGrid(1, m, float(m))
    rng = np.random.default_rng(n * m)
    phi = normalize(WaveFunction(g, rng.standard_normal(m)
                                 + 1j * rng.standard_normal(m)))
    state = product_state_lift(phi, build_fock_basis(n, g))
    assert abs(state.norm() - 1.0) < 1e-12


def test_nan_state_or_time_fails_the_domain_checks():
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    with pytest.raises(DomainError, match="unit state"):
        product_state_lift(WaveFunction(g, np.full(4, np.nan)), basis)
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(DomainError, match="nonnegative"):
        evolve_manybody(psi, np.zeros(len(basis)), math.nan)
    psi.coefficients[0] = np.nan
    with pytest.raises(DomainError, match=r"^evolve_manybody requires a unit state, "
                                          r"norm = nan$"):
        evolve_manybody(psi, np.zeros(len(basis)), 0.5)


def test_evolve_manybody_names_the_norm_it_refuses():
    g = LatticeGrid(1, 4, 4.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(2, g))
    twice = ManyBodyState(psi.basis, 2 * psi.coefficients)
    with pytest.raises(DomainError, match=r"^evolve_manybody requires a unit state, norm = "
                                          + re.escape(repr(twice.norm())) + "$"):
        evolve_manybody(twice, np.zeros(len(psi.basis)), 0.5)


@pytest.mark.parametrize("n", [3000, 10 ** 4])
@pytest.mark.parametrize("amplitudes", [None, [0.6, -0.8]], ids=["packet", "balanced"])
def test_lift_on_two_sites_is_the_binomial_law(n, amplitudes):
    # |c_n|^2 = C(N, n_0) p^n_0 (1 - p)^(N - n_0), p = |u_0|^2 / ||u||^2, past
    # N = 2053, the last at which sqrt(N! / prod n_x!) fits a double; the packet
    # holds p = 1.1e-7, the balanced state p = 0.36, whose lgamma terms do not
    # cancel: a relative error of about ulp(lgamma(N+1)), 2e-11 at N = 10^4
    g = LatticeGrid(1, 2, 8.0)
    phi = (gaussian_packet(g) if amplitudes is None
           else normalize(WaveFunction(g, np.array(amplitudes, dtype=complex))))
    basis = build_fock_basis(n, g)
    c2 = np.abs(product_state_lift(phi, basis).coefficients) ** 2
    w = np.abs(g.h ** 0.5 * phi.amplitudes) ** 2
    pmf = scipy.stats.binom.pmf(basis.occupations[:, 0].astype(np.int64), n, w[0] / w.sum())
    bulk = pmf > 1e-12 * pmf.max()
    assert np.max(np.abs(c2[bulk] - pmf[bulk]) / pmf[bulk]) <= 1e-10
    assert np.abs(c2 - pmf).sum() <= (1e-12 if amplitudes is None else 1e-10)


@pytest.mark.parametrize("sites, n", [(2, 2053), (2, 10 ** 4), (3, 1298)])
def test_x_n_of_the_condensate_projector_is_one_for_the_lift_at_large_n(sites, n):
    # N = 2053 and 1298 are the last the lift reached when it formed
    # sqrt(N! / prod n_x!) as one double, and its rounding put X_N(0) 1e-12
    # above 1, beyond the pathwise bound; one normalisation removes it
    g = LatticeGrid(1, sites, 8.0)
    phi = gaussian_packet(g)
    psi = product_state_lift(phi, build_fock_basis(n, g))
    assert abs(manybody_expectation(psi, condensate_projector(phi)) - 1.0) <= 1e-14


def test_a_real_state_lifts_to_exactly_real_coefficients():
    # integer powers of -1 are exact; exp(i k arg u) would leave 1e-17 imaginary
    # parts, and the propagator would run its second loop for them
    g = LatticeGrid(1, 3, 3.0)
    phi = normalize(WaveFunction(g, np.array([0.5, -0.7, -0.2], dtype=complex)))
    for n in (3, 200):
        psi = product_state_lift(phi, build_fock_basis(n, g))
        assert not psi.coefficients.imag.any()
        assert (psi.coefficients.real < 0).any()


def test_a_state_with_exact_zeros_lifts_without_a_floating_point_event():
    # no log or unit phase is taken of a zero u_x, so no 0 * log 0 forms
    g = LatticeGrid(1, 3, 3.0)
    phi = normalize(WaveFunction(g, np.array([0.6, 0.0, -0.8j])))
    basis = build_fock_basis(4, g)
    with np.errstate(all="raise"):
        state = product_state_lift(phi, basis)
    assert np.isfinite(state.coefficients).all()
    u = g.h ** 0.5 * phi.amplitudes
    tensor = functools.reduce(np.kron, [u] * 4)
    assert np.max(np.abs(occupation_to_full(state.coefficients, basis, 3) - tensor)) < 1e-14


def test_a_whole_sector_compares_nothing_with_its_mirror_image(monkeypatch):
    def refuse(self, values):
        raise AssertionError("a whole sector compared values with their mirror image")

    g = LatticeGrid(1, 8, 8.0)
    full = build_fock_basis(3, g)
    assert full.halved is False and build_fock_basis(3, g, halved=True).halved is True
    monkeypatch.setattr(LatticeGrid, "is_even", refuse)
    # neither is even: e^{ikx} mirrors to e^{-ikx}, and v(x) = x to v(-x)
    odd = RandomField(g, np.arange(8.0))
    assert assemble_hamiltonian(full, odd).shape == (len(full),)
    assert abs(product_state_lift(plane_wave(g), full).norm() - 1.0) < 1e-12


def test_lift_rejects_unnormalized_state():
    g = LatticeGrid(1, 3, 3.0)
    phi = WaveFunction(g, np.ones(3, dtype=complex))
    with pytest.raises(DomainError):
        product_state_lift(phi, build_fock_basis(2, g))


def test_lift_matches_full_tensor_power():
    g = LatticeGrid(1, 3, 3.0)
    rng = np.random.default_rng(21)
    phi = normalize(WaveFunction(g, rng.standard_normal(3)
                                 + 1j * rng.standard_normal(3)))
    n = 3
    basis = build_fock_basis(n, g)
    state = product_state_lift(phi, basis)
    full = occupation_to_full(state.coefficients, basis, 3)
    u = g.h ** 0.5 * phi.amplitudes
    tensor = u
    for _ in range(n - 1):
        tensor = np.kron(tensor, u)
    assert np.max(np.abs(full - tensor)) < 1e-12


# --- propagation ----------------------------------------------------------

@pytest.mark.parametrize("halved", [False, True], ids=["whole-complex", "block-even"])
def test_zero_time_propagation_is_identity(halved):
    # the Chebyshev path itself at degree 1: J = (1, 0), phase 1
    g = LatticeGrid(1, 8, 8.0)
    basis = build_fock_basis(4, g, 1, halved)
    h = assemble_hamiltonian(basis, _field(g, sigmas=(0.5,), seed=2))
    phi = gaussian_packet(g) if halved else plane_wave(g, 1)
    psi = product_state_lift(phi, basis)
    # the plane wave runs both real-part loops, the even packet only Re's
    assert psi.coefficients.imag.any() == (not halved)
    out = evolve_manybody(psi, h, 0.0)
    assert np.array_equal(out.coefficients.view(np.uint64), psi.coefficients.view(np.uint64))


def test_hamiltonian_shift_is_global_phase():
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    h = assemble_hamiltonian(basis, _field(g, sigmas=(0.5,), seed=3))
    c, t = 1.3, 0.4
    shifted = h + c
    psi = product_state_lift(gaussian_packet(g), basis)
    a = evolve_manybody(psi, h, t)
    b = evolve_manybody(psi, shifted, t)
    assert np.max(np.abs(b.coefficients - np.exp(-1j * c * t) * a.coefficients)) < 1e-9
    factors = condensate_projector(gaussian_packet(g))
    assert manybody_expectation(a, factors) == pytest.approx(
        manybody_expectation(b, factors), abs=1e-9)


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
        g = LatticeGrid(1, m, float(m))
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

    c, r = _spectral_interval(psi0.basis.n_particles, psi0.basis.grid, h)
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
        g = LatticeGrid(1, m, float(m))
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


class _CountingMatrix:
    """A sparse matrix that counts its products with a vector."""

    def __init__(self, mat):
        self.mat, self.products = mat, 0

    def __matmul__(self, vec):
        self.products += 1
        return self.mat @ vec


def test_propagation_skips_a_part_of_psi0_that_is_zero():
    g = LatticeGrid(1, 8, 8.0)
    basis = build_fock_basis(4, g)
    v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,), seed=17)
    h = assemble_hamiltonian(basis, v)
    t = 0.5
    c, r = _spectral_interval(basis.n_particles, basis.grid, h)
    k = _chebyshev_degree(r * t)  # one product per degree past the first
    real = product_state_lift(gaussian_packet(g), basis).coefficients
    cases = {"real": real, "imaginary": 1j * real,
             "complex": product_state_lift(plane_wave(g, 1), basis).coefficients}
    assert not cases["imaginary"].real.any()
    products, out = {}, {}
    for name, coefficients in cases.items():
        counted = dataclasses.replace(basis, one_body=_CountingMatrix(basis.one_body))
        out[name] = evolve_manybody(ManyBodyState(counted, coefficients), h, t).coefficients
        products[name] = counted.one_body.products
    assert products == {"real": k, "imaginary": k, "complex": 2 * k}
    assert np.array_equal(out["imaginary"], 1j * out["real"])


# down to 1e-300, where a step of Miller's recurrence grows by 2n/x ~ 1e301, and
# below 1e-306, where that step overflows, to the least double and to 0, where
# r*t underflows
BESSEL_ARGUMENTS = (0.0, 5e-324, 1e-308, 1e-307, 1e-300, 1e-200, 1e-100, 1e-3, 0.5,
                    3.0, 30.0, 120.0, 700.0)


@pytest.mark.parametrize("x", BESSEL_ARGUMENTS)
def test_bessel_coefficients_match_scipy(x):
    k = _chebyshev_degree(x)
    got = _bessel_j(x, k)
    assert got.shape == (k + 1,)
    assert np.max(np.abs(got - scipy.special.jv(np.arange(k + 1), x))) < 1e-13


@pytest.mark.parametrize("x", [0.5, 60.0, 300.0])
def test_bessel_coefficients_of_a_numpy_float_are_those_of_a_float(x):
    # the small-x guard must not overflow: x * 2^1023 does so with a warning for
    # a numpy float, and silently for a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _bessel_j(np.float64(x), 100)
    assert np.array_equal(got, _bessel_j(x, 100))


@pytest.mark.parametrize("x", BESSEL_ARGUMENTS)
def test_chebyshev_degree_bounds_bessel_tail(x):
    k = _chebyshev_degree(x)
    # the terms past k + 200 are below 1e-300 for every x here
    tail = 2.0 * np.sum(np.abs(scipy.special.jv(np.arange(k + 1, k + 200), x)))
    assert tail <= 2.0 ** -53


@pytest.mark.parametrize("d,m,n", [(1, 2, 3), (1, 6, 3), (2, 3, 2)])
def test_gershgorin_interval_contains_spectrum(d, m, n):
    # the dGamma(T - T_xx) + Weyl interval holds the spectrum and is no wider than
    # the Gershgorin interval of the same H
    g = LatticeGrid(d, m, float(m))
    basis = build_fock_basis(n, g)
    v = _field(g, base="gaussian_bump(1.0, 1.0)", sigmas=(0.5,) * ((m - 1) // 2),
               seed=43)  # as many modes as the grid admits, none at m = 2
    h = assemble_hamiltonian(basis, v)
    dense = basis.one_body.toarray() + np.diag(h)
    radius = np.abs(dense - np.diag(np.diag(dense))).sum(axis=1)
    gershgorin = (np.max(np.diag(dense) + radius) - np.min(np.diag(dense) - radius)) / 2
    c, r = _spectral_interval(basis.n_particles, basis.grid, h)
    evals = np.linalg.eigvalsh(dense)
    assert 0 < r <= gershgorin
    assert c - r <= evals[0] and evals[-1] <= c + r


@pytest.mark.parametrize("fill, t", [(np.nan, 0.5), (np.inf, 0.5), (0.0, 1e12), (np.nan, 0.0)],
                         ids=["nan-h", "inf-h", "huge-t", "nan-h-at-t0"])
def test_propagation_beyond_the_rt_cap_fails_before_the_degree_search(fill, t):
    # the degree grows like e*r*t/2, so an uncapped search on these would not end
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(ResourceError, match="beyond the cap"):
        evolve_manybody(psi, np.full(len(basis), fill), t)


def test_propagation_draws_no_random_numbers():
    # ||tH||_1 ~ 69, where scipy's expm_multiply draws from numpy's global RNG
    g = LatticeGrid(1, 8, 8.0)
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
    g = LatticeGrid(1, 6, 6.0)
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
    g = LatticeGrid(1, 4, 4.0)
    rng = np.random.default_rng(23)
    phi = normalize(WaveFunction(g, rng.standard_normal(4)
                                 + 1j * rng.standard_normal(4)))
    psi = product_state_lift(phi, build_fock_basis(3, g))
    gamma = reduced_density_matrix(psi)
    expected = np.outer(phi.amplitudes, phi.amplitudes.conj())
    assert np.max(np.abs(gamma - expected)) < 1e-12


@pytest.mark.parametrize("p", [1, 2])
def test_rdm_trace_hermiticity_positivity(p):
    # the one-particle RDM from the top gather of a sector of order p, and the
    # p-particle one that the tests compose from its p gathers
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(3, g, p)
    rng = np.random.default_rng(29)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    coeffs /= np.linalg.norm(coeffs)
    psi = ManyBodyState(basis, coeffs)
    for gamma, order in ((reduced_density_matrix(psi), 1), (composed_rdm(psi), p)):
        assert gamma.shape == (g.n_sites ** order,) * 2
        trace = g.cell_volume ** order * np.trace(gamma)
        assert trace.real == pytest.approx(1.0, abs=1e-12)
        assert abs(trace.imag) < 1e-12
        assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12
        evals = np.linalg.eigvalsh(g.cell_volume ** order * gamma)
        assert np.min(evals) >= -1e-12


def _sparse_product_rdm(psi, p):
    """The p-RDM from the reference sparse product a_{x_p}...a_{x_1} applied to
    the coefficients as a real (dim, 2) block."""
    g, n = psi.basis.grid, psi.basis.n_particles
    flat = psi.coefficients[:, None].view(np.float64)
    w = (_reference_gather(n, g, p) @ flat).view(np.complex128)
    w = np.ascontiguousarray(w.reshape(g.n_sites ** p, -1).T)
    raw = sum(w[rows].T @ w[rows].conj() for rows in mflab.manybody._blocks(len(w)))
    return (1.0 / (math.perm(n, p) * psi.basis.grid.cell_volume ** p)) * raw


@pytest.mark.parametrize("d,m,n,p", [(2, 4, 6, 1), (1, 8, 10, 2), (1, 4, 31, 3),
                                     (1, 3, 3, 3)])
def test_rdm_is_bitwise_the_sparse_product_rdm(d, m, n, p):
    # the first three have 15,504, 6,435 and 4,495 states in the N-p sector,
    # so several row blocks; the last has the vacuum alone. The one-particle
    # RDM reads the top gather whatever p is, and the composed p-RDM all p.
    g = LatticeGrid(d, m, 2.0 * m)
    basis = build_fock_basis(n, g, p)
    rng = np.random.default_rng(37 + p)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    for psi in (ManyBodyState(basis, coeffs / np.linalg.norm(coeffs)),
                product_state_lift(gaussian_packet(g), basis)):
        assert np.array_equal(reduced_density_matrix(psi), _sparse_product_rdm(psi, 1))
        assert np.array_equal(composed_rdm(psi), _sparse_product_rdm(psi, p))


def test_rdm_streams_its_gathers():
    g = LatticeGrid(2, 4, 8.0)  # the reach workload's N=6 sector
    basis = build_fock_basis(6, g)
    psi = product_state_lift(gaussian_packet(g), basis)
    sub_dim, sites = basis.gathers[0][0].shape
    tracemalloc.start()
    try:
        reduced_density_matrix(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sites * sub_dim * 16  # the complex product a Psi, held whole


# --- expectations ---------------------------------------------------------

def _lifted_operator_dense(a, n, grid):
    """Dense N-body lift with the combinatorial prefactor and symmetrizers."""
    sites = grid.n_sites
    a_l2 = grid.cell_volume ** a.p * a.kernel
    full = np.kron(a_l2, np.eye(sites ** (n - a.p)))
    ps = symmetrizer(n, sites)
    return math.perm(n, a.p) / n ** a.p * ps @ full @ ps


@pytest.mark.parametrize("p", [1, 2])
def test_expectation_matches_lifted_operator_oracle(p):
    g = LatticeGrid(1, 3, 3.0)
    n = 3
    basis = build_fock_basis(n, g, p)
    rng = np.random.default_rng(31 + p)
    factors, a = _test_factors("full-rank", g, p, rng)
    for trial in range(3):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        psi = ManyBodyState(basis, coeffs)
        full = occupation_to_full(coeffs, basis, 3)
        oracle = np.vdot(full, _lifted_operator_dense(a, n, g) @ full).real
        got = manybody_expectation(psi, factors)
        assert got == pytest.approx(oracle, abs=1e-10)


def _random_state(basis, rng):
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    psi = ManyBodyState(basis, coeffs)
    return ManyBodyState(basis, coeffs / psi.norm())


def _test_factors(kind, g, p, rng):
    """Factors of order p and the DenseKernel they stand for."""
    sites = g.n_sites
    if kind == "rank-one":  # the condensate projector, against its kron kernel
        phi = normalize(WaveFunction(g, rng.standard_normal(sites)
                                     + 1j * rng.standard_normal(sites)))
        return condensate_projector(phi, p), DenseKernel(p, functools.reduce(
            np.kron, [np.outer(phi.amplitudes, phi.amplitudes.conj())] * p))
    if kind == "diagonal":  # the site multiplier's columns, with zeros, to the power p
        f = site_multiplier(g, 1.5, 1)
        factors = SpectralFactors(f.mu, f.u, g, p)
        return factors, tensor_power_kernel(factors)
    if p == 1:  # a random Hermitian kernel and its eigensolve
        raw = rng.standard_normal((sites, sites)) + 1j * rng.standard_normal((sites, sites))
        a = DenseKernel(1, raw + raw.conj().T)
        return spectral_factors(a.kernel, g), a
    factors = random_tensor_factors(g, p, rng)
    return factors, tensor_power_kernel(factors)


@pytest.mark.parametrize("kind", ["rank-one", "diagonal", "full-rank"])
@pytest.mark.parametrize("m,n,p", [(4, 5, 1), (4, 5, 2), (4, 5, 3), (8, 10, 2)])
def test_expectation_from_spectral_factors_matches_the_rdm_trace(m, n, p, kind):
    # (8, 10, 2) has 6,435 rows in the N-p sector, so two gather blocks
    g = LatticeGrid(1, m, 0.75 * m)
    basis = build_fock_basis(n, g, p)
    rng = np.random.default_rng(60 + 7 * p + m)
    factors, a = _test_factors(kind, g, p, rng)
    for psi in (_random_state(basis, rng), product_state_lift(gaussian_packet(g), basis)):
        got = manybody_expectation(psi, factors)
        assert abs(got - x_n_oracle(psi, a)) <= 1e-13 * np.abs(factors.mu).max()


@pytest.mark.parametrize("d,m,n,p", [(1, 4, 5, 2), (1, 5, 6, 3), (2, 3, 4, 2), (1, 3, 3, 3)])
@pytest.mark.parametrize("halved", [False, True], ids=["whole", "block"])
def test_x_n_of_tensor_power_factors_is_the_composed_rdm_trace(monkeypatch, d, m, n, p,
                                                               halved):
    # r exceeds the dimension of the symmetric p-particle space, so K spans every
    # symmetric Hermitian kernel; 7 rows a block split every step into several
    monkeypatch.setattr(mflab.manybody, "_BLOCK_ROWS", 7)
    g = LatticeGrid(d, m, 0.75 * m)
    rng = np.random.default_rng(200 + 10 * d + m + p)
    factors = random_tensor_factors(g, p, rng)
    a = tensor_power_kernel(factors)
    basis = build_fock_basis(n, g, p, halved)
    z = rng.standard_normal(g.n_sites) + 1j * rng.standard_normal(g.n_sites)
    phi = normalize(WaveFunction(g, z + z[g.inversion()]))  # even bit for bit
    for psi in (_random_state(basis, rng), product_state_lift(phi, basis)):
        assert abs(manybody_expectation(psi, factors) - x_n_oracle(psi, a)) <= 1e-14


@pytest.mark.parametrize("kind", ["rank-one", "diagonal", "full-rank"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_hartree_expectation_from_spectral_factors_matches_the_double_sum(p, kind):
    g = LatticeGrid(1, 4, 3.0)
    rng = np.random.default_rng(80 + p)
    factors, a = _test_factors(kind, g, p, rng)
    for phi in (gaussian_packet(g), normalize(WaveFunction(
            g, rng.standard_normal(4) + 1j * rng.standard_normal(4)))):
        got = hartree_expectation(phi, factors)
        assert abs(got - x_oracle(phi, a)) <= 1e-13 * np.abs(factors.mu).max()


@pytest.mark.parametrize("kind", ["rank-one", "diagonal", "full-rank"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_x_n_at_time_zero_is_x_times_the_lift_prefactor(p, kind):
    # at t = 0, gamma_N^(p) of phi^(x)N is |phi^(x)p><phi^(x)p|, so the two
    # dynamics agree up to N!/(N^p (N-p)!); h = 0.75 keeps every power of h visible
    g, n = LatticeGrid(1, 4, 3.0), 5
    rng = np.random.default_rng(90 + p)
    factors, _ = _test_factors(kind, g, p, rng)
    phi = normalize(WaveFunction(g, rng.standard_normal(4) + 1j * rng.standard_normal(4)))
    basis = build_fock_basis(n, g, p)
    x_n = manybody_expectation(product_state_lift(phi, basis), factors)
    x = hartree_expectation(phi, factors)
    assert abs(x_n - math.perm(n, p) / n ** p * x) <= 1e-13 * np.abs(factors.mu).max()


def test_dropped_spectral_pairs_move_x_n_by_at_most_their_bound():
    g = LatticeGrid(1, 4, 3.0)
    cut = g.n_sites * np.finfo(float).eps  # relative to the largest |mu|, here 1
    # two eigenvalues above the numerical-rank cut, one below it and a null space
    lam = np.array([1.0, -10 * cut, cut / 10, 0.0])
    rng = np.random.default_rng(71)
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    kernel = (v * lam) @ v.conj().T / g.cell_volume
    factors = spectral_factors(kernel, g)
    assert len(factors.mu) == 2
    mu_all, v_all = np.linalg.eigh(g.cell_volume * kernel)
    basis = build_fock_basis(5, g)
    for psi in (_random_state(basis, rng), product_state_lift(gaussian_packet(g), basis)):
        kept = manybody_expectation(psi, factors)
        restored = manybody_expectation(psi, SpectralFactors(mu_all, v_all, g, 1))
        assert abs(restored - kept) <= cut * np.abs(factors.mu).max()


def test_expectation_of_initial_product_state():
    g = LatticeGrid(1, 3, 3.0)
    n = 3
    phi = gaussian_packet(g)
    for p in (1, 2):
        psi = product_state_lift(phi, build_fock_basis(n, g, p))
        got = manybody_expectation(psi, condensate_projector(phi, p=p))
        # at t=0 the state is phi^(x)N, so Tr(a gamma) = <phi^p, a phi^p> = 1
        assert got == pytest.approx(math.perm(n, p) / n ** p, abs=1e-12)


def test_single_particle_sector_is_free_evolution():
    g = LatticeGrid(1, 8, 8.0)
    phi = gaussian_packet(g)
    v = _field(g, base="gaussian_bump(1.0, 1.5)", sigmas=(0.5, 0.3), seed=37)
    basis = build_fock_basis(1, g)
    h = assemble_hamiltonian(basis, v)
    psi0 = product_state_lift(phi, basis)
    psi_t = evolve_manybody(psi0, h, 0.5)
    x1 = manybody_expectation(psi_t, condensate_projector(phi))
    # free lattice evolution via Fourier phases; interaction is absent at N=1
    spec = np.fft.fft(phi.amplitudes)
    free = np.fft.ifft(spec * np.exp(-1j * 0.5 * lattice_dispersion(g).ravel()))
    free_wf = WaveFunction(g, free)
    expected = abs(g.cell_volume * np.vdot(free_wf.amplitudes, phi.amplitudes)) ** 2
    assert x1 == pytest.approx(expected, abs=1e-9)


def test_expectation_respects_norm_bound():
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(3, g)
    factors = condensate_projector(gaussian_packet(g))
    bound = np.abs(factors.mu).max()
    rng = np.random.default_rng(41)
    for _ in range(5):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        coeffs /= np.linalg.norm(coeffs)
        x = manybody_expectation(ManyBodyState(basis, coeffs), factors)
        assert abs(x) <= bound + 1e-12


def test_expectation_rejects_observable_of_another_grid():
    g = LatticeGrid(1, 4, 4.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(2, g))
    g5 = LatticeGrid(1, 5, 5.0)
    a = condensate_projector(gaussian_packet(g5))
    with pytest.raises(DimensionError, match=r"^the observable lives on .*, not on "):
        manybody_expectation(psi, a)


def test_expectation_rejects_factors_of_a_grid_with_another_spacing():
    g, coarse = LatticeGrid(1, 8, 2.0), LatticeGrid(1, 8, 8.0)
    psi = product_state_lift(gaussian_packet(g), build_fock_basis(2, g))
    factors = condensate_projector(gaussian_packet(coarse))
    with pytest.raises(DimensionError, match=r"^the observable lives on .*, not on "):
        manybody_expectation(psi, factors)


@pytest.mark.parametrize("n", [1, 3])  # at N = 1 there is no N - p sector for p = 2
def test_expectation_rejects_a_gather_of_another_order(n):
    g = LatticeGrid(1, 4, 4.0)
    phi = gaussian_packet(g)
    orders = [(1, 2), (2, 1)] if n > 1 else [(1, 2)]
    for basis_p, factors_p in orders:
        psi = product_state_lift(phi, build_fock_basis(n, g, basis_p))
        factors = condensate_projector(phi, factors_p)
        with pytest.raises(DimensionError, match=rf"the factors are of order p={factors_p}, "
                                                 rf"the state's sector gathers order "
                                                 rf"p={basis_p}$"):
            manybody_expectation(psi, factors)


def test_assemble_rejects_a_field_on_another_grid_with_as_many_sites():
    basis = build_fock_basis(2, LatticeGrid(1, 16, 16.0))
    with pytest.raises(DimensionError, match="lives on"):
        assemble_hamiltonian(basis, _field(LatticeGrid(2, 4, 8.0), mean=0.3))


def test_assemble_rejects_mismatched_basis():
    g = LatticeGrid(1, 4, 4.0)
    basis = build_fock_basis(2, g)
    with pytest.raises(DimensionError):
        assemble_hamiltonian(basis, _field(LatticeGrid(1, 5, 5.0)))
    # a diagonal of another sector's length
    short = assemble_hamiltonian(build_fock_basis(1, g), _field(g))
    psi = product_state_lift(gaussian_packet(g), basis)
    with pytest.raises(DimensionError):
        evolve_manybody(psi, short, 0.5)
    with pytest.raises(DimensionError):
        energy_expectation(psi, short)
