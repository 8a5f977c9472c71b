"""p-particle observables a, held as SpectralFactors of one-particle columns.

mflab sees a only on bosonic states, where it holds h^{dp} K = sum_k mu_k
|u_k^(x)p><u_k^(x)p|, each u_k one column over the sites: X and X_N read the
columns through one product or one gather a step (hartree_expectation,
manybody_expectation), and the norm is max|mu|, the columns being orthonormal in
every factor mflab builds. The stock observables are sums of tensor powers and give
their factors in closed form; spectral_factors finds them by one eigensolve of a
dense Hermitian one-particle kernel K, (a phi)(x) = h^d sum_y K(x;y) phi(y), which
it checks itself. Whoever reads the factors checks their grid by grid.check_grid.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .grid import LatticeGrid, WaveFunction, check_unit, separable_profile


@dataclass(frozen=True, eq=False)
class SpectralFactors:
    """h^{dp} K = sum_k mu_k |u_k^(x)p><u_k^(x)p| on the p-particle states over grid:
    p >= 1, and mu of shape (r,) and u of shape (sites, r), which it sets read-only.

    The columns of u must be orthonormal, as in every factor mflab builds: a plan
    takes max|mu| as the observable's norm, which holds only then, and this class
    does not check it."""

    mu: np.ndarray
    u: np.ndarray
    grid: LatticeGrid
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"observable particle count must be >= 1, got {self.p}")
        if self.mu.ndim != 1 or self.u.shape != (self.grid.n_sites, len(self.mu)):
            raise DimensionError(f"factors of shapes {self.mu.shape} and {self.u.shape} "
                                 f"do not fit {self.grid.n_sites} rows")
        self.mu.setflags(write=False)
        self.u.setflags(write=False)

    def weighted_squares(self, blocks: Iterable[np.ndarray]) -> float:
        """sum_k mu_k sum_m |z[m, k]|^2 over the row blocks of z, one column per pair:
        squares summed without BLAS."""
        sums = np.zeros(len(self.mu))
        for z in blocks:
            sums += np.einsum("mk,mk->k", z.real, z.real)
            sums += np.einsum("mk,mk->k", z.imag, z.imag)
        return float(np.einsum("k,k->", self.mu, sums))


def _significant(mu: np.ndarray) -> np.ndarray:
    """The mask of |mu| > dim eps max|mu|, dim = len(mu), the numerical rank rule: the rest
    is roundoff, and dropping it moves <v, a v> by <= dim eps ||a|| ||v||^2."""
    return np.abs(mu) > len(mu) * np.finfo(float).eps * np.abs(mu).max(initial=0.0)


def spectral_factors(kernel: np.ndarray, grid: LatticeGrid) -> SpectralFactors:
    """The SpectralFactors on grid of the dense one-particle kernel K, (a phi)(x) = h^d
    sum_y K(x;y) phi(y), which must be (sites, sites), finite and self-adjoint to 1e-12
    max|K|: the eigenpairs (mu_k, u_k) of h^d K past the numerical rank cut, one eigh."""
    k = np.asarray(kernel, dtype=np.complex128)
    if k.shape != (grid.n_sites,) * 2:
        raise DimensionError(f"the kernel has shape {k.shape}, not {(grid.n_sites,) * 2}")
    # a NaN or inf stops the `and` before K - K^H is formed
    if not (np.isfinite(k).all() and np.abs(k - k.conj().T).max(initial=0.0)
            <= 1e-12 * np.abs(k).max(initial=0.0)):
        raise DomainError("kernel must be finite and self-adjoint to 1e-12 max|K|")
    mu, v = np.linalg.eigh(grid.cell_volume * k)
    keep = _significant(mu)
    return SpectralFactors(mu[keep], v[:, keep], grid, 1)


# --- stock observables ----------------------------------------------------

def condensate_projector(phi: WaveFunction, p: int = 1) -> SpectralFactors:
    """p-fold tensor power of the rank-one projector |phi><phi| of a unit phi:
    h^{dp} K = |u^(x)p><u^(x)p| for the one unit column u = h^{d/2} phi, so mu = (1,)."""
    check_unit(phi.norm(), "condensate projector")
    u = phi.grid.cell_volume ** 0.5 * phi.amplitudes
    return SpectralFactors(np.ones(1), u.reshape(-1, 1), phi.grid, p)


def site_multiplier(grid: LatticeGrid, amplitude: float = 1.0,
                    mode: int = 1) -> SpectralFactors:
    """One-particle multiplication by the smooth f = A*cos(2 pi mode x / L), for d > 1 the
    product of the axis profiles: h^d K = diag(f), so mu = f and u holds identity columns,
    written only for the sites that pass the rank cut."""
    x = grid.axis_coordinates()
    f = amplitude * separable_profile(grid, np.cos(2.0 * np.pi * mode * x / grid.length))
    keep_sites = np.flatnonzero(_significant(f))
    u = np.zeros((f.size, keep_sites.size), dtype=np.complex128)
    u[keep_sites, np.arange(keep_sites.size)] = 1
    return SpectralFactors(f[keep_sites], u, grid, 1)
