"""p-particle observables given by dense kernels on lattice^p x lattice^p.

A kernel K acts as (a phi)(X) = h^{dp} sum_Y K(X;Y) phi(Y) and is kept as
given. mflab sees a only on bosonic states, so a plan turns K once into
SpectralFactors (mu, U, grid, p) on the symmetric subspace: X = <phi^(x)p,
a phi^(x)p> and X_N = Tr(a gamma), gamma bosonic, are its quadratic_form, and
the norm is max|mu|. phi^(x)p, gamma and that subspace are fixed by every
simultaneous permutation of the p coordinate blocks, so none of the three
changes if K is averaged over those permutations.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .errors import DimensionError, DomainError, ResourceError
from .grid import LatticeGrid, WaveFunction, separable_profile

# a dense complex sites^p x sites^p kernel at the cap is 256 MiB
KERNEL_DIMENSION_CAP = 4096


@dataclass
class PObservable:
    """Bounded p-particle observable with a dense kernel on sites^p x sites^p.

    The kernel is stored as a read-only complex copy, kept as given:
    block-symmetrizing it would change no result (see the module docstring).
    It must be finite and self-adjoint, max|K - K^H| <= 1e-12 max|K|.
    """

    p: int
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = k = np.array(self.kernel, dtype=np.complex128)
        k.setflags(write=False)
        if self.p < 1:
            raise DomainError(f"observable particle count must be >= 1, got {self.p}")
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise DimensionError(f"kernel must be square, got shape {self.kernel.shape}")
        dim = self.kernel.shape[0]
        if round(dim ** (1.0 / self.p)) ** self.p != dim:
            raise DimensionError(f"kernel dimension {dim} is not a p-th power (p={self.p})")
        # a NaN or inf stops the `and` before K - K^H is formed
        if not (np.isfinite(k).all() and np.abs(k - k.conj().T).max(initial=0.0)
                <= 1e-12 * np.abs(k).max(initial=0.0)):
            raise DomainError("kernel must be finite and self-adjoint to 1e-12 max|K|")


class SpectralFactors(NamedTuple):
    """h^{dp} K = sum_k mu_k U_k U_k^H on the symmetric p-particle subspace over grid."""

    mu: np.ndarray
    u: np.ndarray
    grid: LatticeGrid
    p: int

    def check_grid(self, grid: LatticeGrid) -> None:
        if grid != self.grid:
            raise DimensionError(f"the factors hold on {self.grid}, the state on {grid}")

    def quadratic_form(self, conj_blocks: Iterable[np.ndarray]) -> float:
        """sum_m <w_m, a w_m> = sum_k mu_k sum_m |(conj(w) U)[m, k]|^2 for symmetric rows
        w_m: one product per row block of conj(w), squares summed without BLAS."""
        sums = np.zeros(len(self.mu))
        for b in conj_blocks:
            z = b @ self.u
            sums += np.einsum("mk,mk->k", z.real, z.real)
            sums += np.einsum("mk,mk->k", z.imag, z.imag)
        return float(np.einsum("k,k->", self.mu, sums))


def spectral_factors(a: PObservable, grid: LatticeGrid) -> SpectralFactors:
    """Eigenpairs (mu, u) of h^{dp} K restricted to the permutation-symmetric subspace,
    from one Hermitian eigensolve: mu is (r,), u is (sites^p, r), read-only, with grid and p.

    The subspace has an orthonormal basis Q with one normalized indicator
    column per orbit of the block permutations (Q is the identity for p = 1),
    so the eigenpairs (mu_k, V_k) of the Hermitian Q^T (h^{dp} K) Q give
    h^{dp} K = sum_k mu_k U_k U_k^H on that subspace, with U = Q V. The orbit of
    X = (x_1..x_p) is keyed by its sorted multi-index, and Q is sparse, so the
    product costs O(sites^{2p}). Only the r pairs with |mu| > dim_sym eps max|mu|
    are kept, the numerical-rank rule of np.linalg.matrix_rank: the rest are
    roundoff, and dropping them moves <v, a v> by at most dim_sym eps ||a|| ||v||^2.
    """
    if len(a.kernel) != grid.n_sites ** a.p:
        raise DimensionError(f"the kernel has {len(a.kernel)} rows, not {grid.n_sites}^{a.p}")
    shape = (grid.n_sites,) * a.p
    key = np.ravel_multi_index(np.sort(np.indices(shape).reshape(a.p, -1), axis=0), shape)
    _, orbit, size = np.unique(key, return_inverse=True, return_counts=True)
    # one entry a row: Q[X, orbit of X] = 1/sqrt(orbit size)
    q = scipy.sparse.csr_array((1.0 / np.sqrt(size[orbit]), orbit, np.arange(key.size + 1)))
    b = q.T @ ((grid.cell_volume ** a.p) * a.kernel) @ q
    mu, v = np.linalg.eigh(b)
    keep = np.abs(mu) > len(b) * np.finfo(float).eps * np.abs(mu).max(initial=0.0)
    mu, u = mu[keep], q @ v[:, keep]
    mu.setflags(write=False)
    u.setflags(write=False)
    return SpectralFactors(mu, u, grid, a.p)


def check_kernel_dimension(p: int, sites: int) -> None:
    """ResourceError if a p-particle kernel over `sites` sites has more than
    KERNEL_DIMENSION_CAP rows; the stock observables call it first."""
    # sites >= 2 passes the cap by p = 13, so the power stays small for any p;
    # p < 1, which PObservable rejects, counts as 0: sites**-10**400 overflows a float
    if sites ** min(max(p, 0), KERNEL_DIMENSION_CAP.bit_length()) > KERNEL_DIMENSION_CAP:
        raise ResourceError(f"a {p}-particle kernel needs sites^p = {sites}^{p} rows, "
                            f"above the cap of {KERNEL_DIMENSION_CAP:,}")


# --- stock observables ----------------------------------------------------

def condensate_projector(phi: WaveFunction, p: int = 1) -> PObservable:
    """p-fold tensor power of the rank-one projector |phi><phi|."""
    check_kernel_dimension(p, phi.grid.n_sites)
    # for p < 1 the product is empty, the 1 x 1 start, and PObservable rejects p
    factors = (np.outer(phi.amplitudes, phi.amplitudes.conj()) for _ in range(p))
    return PObservable(p, reduce(np.kron, factors, np.ones((1, 1))))


def site_multiplier(grid: LatticeGrid, amplitude: float = 1.0,
                    mode: int = 1) -> PObservable:
    """One-particle multiplication by the smooth function A*cos(2 pi mode x / L).

    For d > 1 the profile is a product of the axis profiles.
    """
    check_kernel_dimension(1, grid.n_sites)
    x = grid.axis_coordinates()
    f = amplitude * separable_profile(grid, np.cos(2.0 * np.pi * mode * x / grid.length))
    kernel = np.diag(f.astype(np.complex128)) / grid.cell_volume
    return PObservable(1, kernel)
