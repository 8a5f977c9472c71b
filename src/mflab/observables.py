"""p-particle observables given by dense kernels on lattice^p x lattice^p.

A kernel K acts as (a phi)(X) = h^{dp} sum_Y K(X;Y) phi(Y). Kernels are
symmetrized at construction under simultaneous permutation of the p
coordinate blocks in both arguments.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grid import LatticeGrid, WaveFunction, separable_profile


def block_permutation_indices(p: int, sites: int) -> list[np.ndarray]:
    """Flat-index maps for every permutation of the p coordinate blocks.

    Index X = (x_1..x_p) is flattened row-major with x_1 most significant.
    """
    flat = np.arange(sites ** p).reshape((sites,) * p)
    return [flat.transpose(np.argsort(perm)).ravel()
            for perm in itertools.permutations(range(p))]


def symmetrize_kernel(kernel: np.ndarray, p: int, sites: int) -> np.ndarray:
    """Average the kernel over simultaneous block permutations of both arguments."""
    out = np.zeros_like(kernel, dtype=np.complex128)
    maps = block_permutation_indices(p, sites)
    for idx in maps:
        out += kernel[np.ix_(idx, idx)]
    return out / len(maps)


@dataclass
class PObservable:
    """Bounded p-particle observable with a dense symmetrized kernel."""

    p: int
    kernel: np.ndarray

    @classmethod
    def from_kernel(cls, p: int, kernel: np.ndarray) -> "PObservable":
        kernel = np.asarray(kernel, dtype=np.complex128)
        if p < 1:
            raise DomainError(f"observable particle count must be >= 1, got {p}")
        if kernel.ndim != 2 or kernel.shape[0] != kernel.shape[1]:
            raise DimensionError(f"kernel must be square, got shape {kernel.shape}")
        dim = kernel.shape[0]
        sites = round(dim ** (1.0 / p))
        if sites ** p != dim:
            raise DimensionError(
                f"kernel dimension {dim} is not a p-th power of a site count (p={p})"
            )
        if p > 1:
            kernel = symmetrize_kernel(kernel, p, sites)
        return cls(p=p, kernel=kernel)

    @property
    def sites(self) -> int:
        return round(self.kernel.shape[0] ** (1.0 / self.p))


def operator_norm(a: PObservable, grid: LatticeGrid) -> float:
    """Spectral norm of h^{dp} K restricted to the permutation-symmetric subspace.

    The subspace has an orthonormal basis Q with one normalized indicator
    column per orbit of the block permutations (Q is the identity for p = 1),
    so the norm is the largest singular value of Q^T (h^{dp} K) Q.
    """
    sites = a.sites
    if sites != grid.n_sites:
        raise DimensionError(
            f"kernel is built over {sites} sites, grid has {grid.n_sites}"
        )
    maps = np.stack(block_permutation_indices(a.p, sites))
    _, orbit = np.unique(maps.min(axis=0), return_inverse=True)
    q = np.zeros((orbit.size, orbit.max() + 1))
    q[np.arange(orbit.size), orbit] = 1.0
    q /= np.sqrt(q.sum(axis=0))
    return float(np.linalg.norm(q.T @ ((grid.cell_volume ** a.p) * a.kernel) @ q, 2))


def lift_factor(n: int, p: int) -> float:
    """Prefactor N!/(N^p (N-p)!) of the N-body lift, as a stable product."""
    if p < 1 or p > n:
        raise DomainError(f"need 1 <= p <= N, got p={p}, N={n}")
    out = 1.0
    for k in range(p):
        out *= (n - k) / n
    return out


# --- stock observables ----------------------------------------------------

def condensate_projector(phi: WaveFunction, p: int = 1) -> PObservable:
    """p-fold tensor power of the rank-one projector |phi><phi|."""
    u = phi.amplitudes
    k1 = np.outer(u, u.conj())
    kernel = k1
    for _ in range(p - 1):
        kernel = np.kron(kernel, k1)
    return PObservable.from_kernel(p, kernel)


def site_multiplier(grid: LatticeGrid, amplitude: float = 1.0,
                    mode: int = 1) -> PObservable:
    """One-particle multiplication by the smooth function A*cos(2 pi mode x / L).

    For d > 1 the profile is a product of the axis profiles.
    """
    x = grid.axis_coordinates()
    f = amplitude * separable_profile(grid, np.cos(2.0 * np.pi * mode * x / grid.length))
    kernel = np.diag(f.astype(np.complex128)) / grid.cell_volume
    return PObservable.from_kernel(1, kernel)
