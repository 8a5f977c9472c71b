"""p-particle observables given by dense kernels on lattice^p x lattice^p.

A kernel K acts as (a phi)(X) = h^{dp} sum_Y K(X;Y) phi(Y) and is kept as
given. mflab sees a only on bosonic states: <phi^(x)p, a phi^(x)p>,
Tr(a gamma) for a bosonic gamma, and the norm on the symmetric subspace.
phi^(x)p, gamma and that subspace are fixed by every simultaneous
permutation of the p coordinate blocks, so none of the three changes if K is
averaged over those permutations.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    """

    p: int
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = np.array(self.kernel, dtype=np.complex128)
        self.kernel.setflags(write=False)
        if self.p < 1:
            raise DomainError(f"observable particle count must be >= 1, got {self.p}")
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise DimensionError(f"kernel must be square, got shape {self.kernel.shape}")
        dim = self.kernel.shape[0]
        if self.sites ** self.p != dim:
            raise DimensionError(f"kernel dimension {dim} is not a p-th power "
                                 f"of a site count (p={self.p})")

    @property
    def sites(self) -> int:
        return round(self.kernel.shape[0] ** (1.0 / self.p))


def operator_norm(a: PObservable, grid: LatticeGrid) -> float:
    """Spectral norm of h^{dp} K restricted to the permutation-symmetric subspace.

    The subspace has an orthonormal basis Q with one normalized indicator
    column per orbit of the block permutations (Q is the identity for p = 1),
    so the norm is the largest singular value of Q^T (h^{dp} K) Q. The orbit
    of X = (x_1..x_p) is keyed by its sorted multi-index, and Q is sparse, so
    the product costs O(sites^{2p}).
    """
    sites = a.sites
    if sites != grid.n_sites:
        raise DimensionError(f"kernel is built over {sites} sites, grid has {grid.n_sites}")
    shape = (sites,) * a.p
    key = np.ravel_multi_index(np.sort(np.indices(shape).reshape(a.p, -1), axis=0), shape)
    _, orbit, size = np.unique(key, return_inverse=True, return_counts=True)
    # one entry a row: Q[X, orbit of X] = 1/sqrt(orbit size)
    q = scipy.sparse.csr_array((1.0 / np.sqrt(size[orbit]), orbit, np.arange(key.size + 1)))
    return float(np.linalg.norm(q.T @ ((grid.cell_volume ** a.p) * a.kernel) @ q, 2))


def check_kernel_dimension(p: int, sites: int) -> None:
    """ResourceError if a p-particle kernel over `sites` sites has more than
    KERNEL_DIMENSION_CAP rows; the stock observables call it before allocating."""
    # sites >= 2 passes the cap by p = 13, so the power stays small for any p
    if sites ** min(p, KERNEL_DIMENSION_CAP.bit_length()) > KERNEL_DIMENSION_CAP:
        raise ResourceError(f"a {p}-particle kernel needs sites^p = {sites}^{p} rows, "
                            f"above the cap of {KERNEL_DIMENSION_CAP:,}")


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
    check_kernel_dimension(p, phi.grid.n_sites)
    u = phi.amplitudes
    k1 = np.outer(u, u.conj())
    kernel = k1
    for _ in range(p - 1):
        kernel = np.kron(kernel, k1)
    return PObservable(p, kernel)


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
