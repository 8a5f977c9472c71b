"""p-particle observables a, held as SpectralFactors on bosonic states.

mflab sees a only on bosonic states, where h^{dp} K = sum_k mu_k U_k U_k^H: X and X_N =
Tr(a gamma) are the factors' quadratic_form, and the norm is max|mu|. The stock
observables give them in closed form; spectral_factors finds them by one eigensolve
for a PObservable, a dense kernel K with (a phi)(X) = h^{dp} sum_Y K(X;Y) phi(Y), and
is unchanged if K is averaged over the permutations of its p coordinate blocks.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse

from .errors import DimensionError, DomainError, ResourceError
from .grid import NORM_TOL, LatticeGrid, WaveFunction, separable_profile

# sites^p: the rows of U and of the p >= 2 gather, and a 256 MiB dense complex kernel
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


@dataclass(frozen=True, eq=False)
class SpectralFactors:
    """h^{dp} K = sum_k mu_k U_k U_k^H on the symmetric p-particle subspace over grid:
    p >= 1, and mu of shape (r,) and u of shape (sites^p, r), which it sets read-only."""

    mu: np.ndarray
    u: np.ndarray
    grid: LatticeGrid
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"observable particle count must be >= 1, got {self.p}")
        if self.mu.ndim != 1 or self.u.shape != (self.grid.n_sites ** self.p, len(self.mu)):
            raise DimensionError(f"factors of shapes {self.mu.shape} and {self.u.shape} "
                                 f"do not fit {self.grid.n_sites}^{self.p} rows")
        self.mu.setflags(write=False)
        self.u.setflags(write=False)

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


def _significant(mu: np.ndarray) -> np.ndarray:
    """The mask of |mu| > dim eps max|mu|, dim = len(mu), the numerical rank rule: the rest
    is roundoff, and dropping it moves <v, a v> by <= dim eps ||a|| ||v||^2."""
    return np.abs(mu) > len(mu) * np.finfo(float).eps * np.abs(mu).max(initial=0.0)


def spectral_factors(a: PObservable, grid: LatticeGrid) -> SpectralFactors:
    """The SpectralFactors of a on grid: one Hermitian eigensolve on the symmetric subspace.

    The subspace has an orthonormal basis Q with one normalized indicator column per
    orbit of the block permutations (Q is the identity for p = 1), so the eigenpairs
    (mu_k, V_k) of the Hermitian Q^T (h^{dp} K) Q give h^{dp} K = sum_k mu_k U_k U_k^H
    on that subspace, with U = Q V. The orbit of X = (x_1..x_p) is keyed by its sorted
    multi-index, and Q is sparse, so the product costs O(sites^{2p}).
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
    keep = _significant(mu)
    return SpectralFactors(mu[keep], (q @ v)[:, keep], grid, a.p)


def check_kernel_dimension(p: int, sites: int) -> None:
    """ResourceError if sites^p > KERNEL_DIMENSION_CAP; the stock observables call it first."""
    # p is clamped: sites >= 2 passes the cap by p = 13, and sites**-10**400 overflows
    if sites ** min(max(p, 0), KERNEL_DIMENSION_CAP.bit_length()) > KERNEL_DIMENSION_CAP:
        raise ResourceError(f"a {p}-particle kernel needs sites^p = {sites}^{p} rows, "
                            f"above the cap of {KERNEL_DIMENSION_CAP:,}")


# --- stock observables ----------------------------------------------------

def condensate_projector(phi: WaveFunction, p: int = 1) -> SpectralFactors:
    """p-fold tensor power of the rank-one projector |phi><phi| of a unit phi:
    h^{dp} K = U U^H with U = (h^{d/2} phi)^(x)p, one unit symmetric column, so mu = (1,)."""
    check_kernel_dimension(p, phi.grid.n_sites)
    if not (abs(phi.norm() - 1.0) <= NORM_TOL):
        raise DomainError(f"condensate projector requires a unit state, norm = {phi.norm()!r}")
    # for p < 1 the product is empty, the start 1.0, and SpectralFactors rejects p
    u = reduce(np.kron, [phi.grid.cell_volume ** 0.5 * phi.amplitudes] * max(p, 0), 1.0)
    return SpectralFactors(np.ones(1), np.reshape(u, (-1, 1)), phi.grid, p)


def site_multiplier(grid: LatticeGrid, amplitude: float = 1.0,
                    mode: int = 1) -> SpectralFactors:
    """One-particle multiplication by the smooth f = A*cos(2 pi mode x / L), for d > 1 the
    product of the axis profiles: h^d K = diag(f), so mu = f and U holds identity columns,
    written only for the sites that pass the rank cut."""
    check_kernel_dimension(1, grid.n_sites)
    x = grid.axis_coordinates()
    f = amplitude * separable_profile(grid, np.cos(2.0 * np.pi * mode * x / grid.length))
    keep_sites = np.flatnonzero(_significant(f))
    u = np.zeros((f.size, keep_sites.size), dtype=np.complex128)
    u[keep_sites, np.arange(keep_sites.size)] = 1
    return SpectralFactors(f[keep_sites], u, grid, 1)
