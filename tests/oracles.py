"""Dense oracles for the p-particle observables and the many-body sectors.

A sector holds its p annihilator gathers one step each; the tests compose them
here into the gather of order p, w = a_{x_p}...a_{x_1} Psi with one column per
X = (x_1..x_p), and read the p-particle reduced density matrix from it, so that
X_N can be checked against Tr(K gamma^(p)) for a dense kernel K on sites^p.
occupation_to_full and symmetrizer carry a sector state into first
quantization, on sites^N, and kinetic_oracle builds the one-particle T = -Lap
from its definition, for the checks against the tensor-product picture.
"""
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from mflab.manybody import _blocks, _rank
from mflab.observables import SpectralFactors


@dataclass(frozen=True)
class DenseKernel:
    """A p-particle observable as its dense kernel K on sites^p x sites^p, with
    (a Phi)(X) = h^{dp} sum_Y K(X; Y) Phi(Y); read only on bosonic states."""

    p: int
    kernel: np.ndarray


def chain(gathers, rows):
    """Gather indices and weights of w = a_{x_p}...a_{x_1} Psi on rows `rows` of
    the N-p sector, for the annihilator gathers (idx, wt) of a sector's p steps,
    the top one first.

    Row m, column X = (x_1..x_p) in row-major order of w is (a_{x_p}...a_{x_1}
    Psi)[m]. Each gather has one entry per (row, site), so w is Psi[idx] times
    the weights f_1, ..., f_p of a_{x_1} (the top one), ..., a_{x_p}: the
    gathers of a_{x_p}..a_{x_2} are followed up to the N-1 sector, then that
    of a_{x_1} up to Psi. f_k has one column per (x_k..x_p), as it does not
    depend on x_1..x_{k-1}, and multiplies every block of that many columns of
    f_1 in the order of k.
    """
    pos = np.arange(len(gathers[-1][0]))[rows, None]
    x, factors = np.arange(gathers[-1][0].shape[1])[:, None], []
    for idx, wt in reversed(gathers):
        # column x * (columns so far) + c: x_k leads the columns of x_{k+1}..x_p
        factors.append(wt[pos[:, None, :], x].reshape(len(pos), -1))
        pos = idx[pos[:, None, :], x].reshape(len(pos), -1)
    wt = factors.pop()
    for f in reversed(factors):
        by_block = wt.reshape(len(wt), -1, f.shape[1])
        by_block *= f[:, None, :]
    return pos, wt


def composed_gather(basis):
    """The sector's gather of order p as (dim(N-p), sites^p) index and weight
    arrays: on a mirror-even block the index reads the block's rows."""
    return chain(basis.gathers, slice(None))


def composed_rdm(psi):
    """Trace-one p-particle reduced density matrix as a kernel on lattice^p, p
    being the order of psi's sector: raw[X, Y] = <a_Y Psi, a_X Psi>, the Gram
    w^T conj(w) of the composed gather summed block by block."""
    basis = psi.basis
    n, p = basis.n_particles, basis.p
    idx, wt = composed_gather(basis)
    raw = sum(w.T @ w.conj() for w in (np.take(psi.coefficients, idx[rows]) * wt[rows]
                                       for rows in _blocks(len(idx))))
    return (1.0 / (math.perm(n, p) * basis.grid.cell_volume ** p)) * raw


def kinetic_oracle(grid):
    """T = -Lap as a dense (sites, sites) matrix from its definition: 2d/h^2 on
    the diagonal, minus each periodic shift of the identity, one step along one
    axis either way, over h^2; on M = 2 the two shifts of an axis coincide and
    add."""
    sites = grid.n_sites
    eye = np.eye(sites).reshape(sites, *grid.shape)
    t = (2 * grid.d / grid.h ** 2) * np.eye(sites)
    for axis in range(grid.d):
        for step in (1, -1):
            t -= np.roll(eye, step, axis=1 + axis).reshape(sites, sites) / grid.h ** 2
    return t


def interaction_matrix_oracle(grid, values):
    """V[x, y] = v(x - y) from the (d, sites, sites) array of periodic coordinate
    differences, indexing v on the grid's shape."""
    v = np.asarray(values).reshape(grid.shape)
    coords = np.indices(grid.shape).reshape(grid.d, -1)
    diff = (coords[:, :, None] - coords[:, None, :]) % grid.m
    return v[tuple(diff)]


def tensor_power_kernel(factors):
    """The DenseKernel of factors: K = h^{-dp} sum_k mu_k |u_k^(x)p><u_k^(x)p|."""
    u = factors.u
    powers = functools.reduce(lambda acc, _: (acc[:, None, :] * u).reshape(-1, u.shape[1]),
                              range(factors.p - 1), u)
    kernel = (powers * factors.mu) @ powers.conj().T
    return DenseKernel(factors.p, kernel / factors.grid.cell_volume ** factors.p)


def random_tensor_factors(grid, p, rng):
    """Random factors of order p with unit columns and sum |mu| = 1, so ||a|| <= 1.
    r exceeds C(sites + p - 1, p), the dimension of the symmetric p-particle
    space, which the u^(x)p of random columns span: their K reach every symmetric
    Hermitian kernel."""
    sites = grid.n_sites
    r = math.comb(sites + p - 1, p) + 2
    u = rng.standard_normal((sites, r)) + 1j * rng.standard_normal((sites, r))
    u /= np.linalg.norm(u, axis=0)
    mu = rng.uniform(-1.0, 1.0, r)
    return SpectralFactors(mu / np.abs(mu).sum(), u, grid, p)


def x_oracle(phi, a):
    """X = <phi^(x)p, a phi^(x)p> from the dense kernel of a."""
    vec = functools.reduce(np.kron, [phi.amplitudes] * a.p)
    return phi.grid.cell_volume ** (2 * a.p) * np.vdot(vec, a.kernel @ vec).real


def x_n_oracle(psi, a):
    """X_N = N!/(N^p (N-p)!) Tr(K gamma^(p)) from the dense kernel of a and the
    composed p-particle reduced density matrix of psi."""
    n, p = psi.basis.n_particles, a.p
    trace = psi.basis.grid.cell_volume ** (2 * p) * np.sum(a.kernel * composed_rdm(psi).T)
    return math.perm(n, p) / n ** p * trace.real


def occupation_to_full(coeffs, basis, sites):
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
        full[flat] = coeffs[_rank(occ, basis.n_particles)] * w
    return full


def symmetrizer(n, sites):
    """The projector onto the symmetric tensors of n factors over sites, as a
    (sites^n, sites^n) matrix: the mean of the n! permutations of the factors."""
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
