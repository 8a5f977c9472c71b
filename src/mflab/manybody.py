"""Exact N-boson dynamics on the lattice.

A FockBasis is one N-particle sector, built once and only read afterwards:
the occupation vectors with total N in lexicographic order, where a vector's
position is its rank in the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3), and the field-independent operators: the stacked annihilation maps
a_x for the reduced density matrices and the one-body CSR matrix
sum_{x,y} T_{xy} adag_x a_y. For one field the Hamiltonian adds the pair term
    (1/2N) sum_{x,y} v(x-y) adag_x adag_y a_y a_x = (occ V occ - v(0) N) / 2N,
which reproduces (1/N) sum_{i<j} v(x_i - x_j) exactly, including same-site
pairs with weight v(0) n_x (n_x - 1)/2. Propagation is a truncated Taylor
series of the trace-shifted Hamiltonian with degree and substep count chosen
from its exact 1-norm (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011); it
draws no random numbers.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConsistencyError, DimensionError, DomainError, ResourceError
from .grid import LatticeGrid, WaveFunction, _laplacian_array
from .observables import PObservable, lift_factor, operator_norm

DIMENSION_CAP = 200_000

# theta_m: the largest ||A||_1 for which the degree-m Taylor polynomial of
# e^A has a backward error below 2^-53 (Al-Mohy & Higham 2011, Table 3.1, and
# Higham, Functions of Matrices, Table A.3).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


def fock_dimension(n: int, sites: int) -> int:
    return math.comb(n + sites - 1, n)


def _lexicographic_occupations(n: int, sites: int) -> np.ndarray:
    """All occupation rows with total n, in lexicographic order.

    Stars and bars: itertools.combinations yields the positions of the
    sites-1 bars among n+sites-1 slots in lexicographic order, and the gaps
    between consecutive bars then come out in lexicographic order too.
    """
    dim = fock_dimension(n, sites)
    bars = np.fromiter(
        itertools.chain.from_iterable(
            itertools.combinations(range(n + sites - 1), sites - 1)),
        dtype=np.int64, count=dim * (sites - 1)).reshape(dim, sites - 1)
    return np.diff(bars, axis=1, prepend=-1, append=n + sites - 1) - 1


def _rank(occupations: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic positions of occupation vectors (last axis) with total n.

    A later vector first differs at some site j-1 by holding more particles
    there, which leaves fewer than R_j = sum(occ[j:]) particles for the
    sites - j sites after it: C(R_j - 1 + sites - j, sites - j) completions.
    """
    occ = np.asarray(occupations, dtype=np.int64)
    sites = occ.shape[-1]
    later = np.array([[math.comb(r - 1 + sites - j, sites - j) for r in range(n + 1)]
                      for j in range(1, sites)], dtype=np.int64)
    suffix = np.cumsum(occ[..., ::-1], axis=-1)[..., ::-1]
    return (fock_dimension(n, sites) - 1
            - later[np.arange(sites - 1), suffix[..., 1:]].sum(axis=-1))


def _annihilator(occ: np.ndarray, n: int) -> scipy.sparse.csr_matrix:
    """a_x for every site x, stacked: rows x*dim(n-1) + rank(occ - e_x)."""
    dim, sites = occ.shape
    sub_dim = fock_dimension(n - 1, sites)
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


def kinetic_matrix(grid: LatticeGrid) -> np.ndarray:
    """One-particle matrix of -Lap (columns are stencil images of unit vectors)."""
    units = np.eye(grid.n_sites, dtype=np.complex128)
    return -np.stack([_laplacian_array(grid, e) for e in units], axis=1).real


@dataclass(frozen=True, eq=False)
class FockBasis:
    """An N-boson sector on a grid and its field-independent operators.

    occupations[i] is the occupation vector of rank i. annihilators[k] stacks
    a_x over the sites from the N-k sector to the N-k-1 sector, as a
    (sites * dim(N-k-1), dim(N-k)) matrix. one_body is the CSR matrix of
    sum_{x,y} T_{xy} adag_x a_y; its diagonal entries sit at diagonal_slots
    of its data. All arrays are read-only, so the one basis built per plan
    serves every sample and no sample can alter it for the next.
    """

    n_particles: int
    grid: LatticeGrid
    occupations: np.ndarray
    annihilators: tuple[scipy.sparse.csr_matrix, ...]
    one_body: scipy.sparse.csr_matrix
    diagonal_slots: np.ndarray

    @property
    def sites(self) -> int:
        return self.grid.n_sites

    def __len__(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """Positions of occupation vectors (last axis) in this basis."""
        return _rank(occupations, self.n_particles)


def build_fock_basis(n: int, grid: LatticeGrid,
                     dimension_cap: int = DIMENSION_CAP,
                     max_rdm_order: int | None = None) -> FockBasis:
    """The N-particle sector, with annihilation maps for RDMs of every order up
    to max_rdm_order (default and at most N)."""
    if n < 1:
        raise DomainError(f"particle number must be >= 1, got {n}")
    dim = fock_dimension(n, grid.n_sites)
    if dim > dimension_cap:
        raise ResourceError(
            f"Fock sector for N={n}, M={grid.m} (d={grid.d}) has dimension {dim}, "
            f"exceeding the cap {dimension_cap}"
        )
    depth = n if max_rdm_order is None else min(max_rdm_order, n)
    occ = _lexicographic_occupations(n, grid.n_sites)
    annihilators = (_annihilator(occ, n),) + tuple(
        _annihilator(_lexicographic_occupations(n - k, grid.n_sites), n - k)
        for k in range(1, depth))

    t = kinetic_matrix(grid)
    a = annihilators[0]
    hopping = scipy.sparse.kron(scipy.sparse.csr_matrix(t - np.diag(np.diag(t))),
                                scipy.sparse.identity(a.shape[0] // grid.n_sites),
                                format="csr")
    # A^T (T_offdiag (x) 1) A = sum_{x != y} T_xy adag_x a_y has an empty diagonal;
    # diag(T) = 2d/h^2 > 0 then makes every diagonal entry nonzero, hence stored
    one_body = (a.T @ (hopping @ a) + scipy.sparse.diags(occ @ np.diag(t))).tocsr()
    one_body.sort_indices()
    rows = np.repeat(np.arange(dim), np.diff(one_body.indptr))
    slots = np.flatnonzero(one_body.indices == rows)
    for mat in (one_body, *annihilators):
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
    occ.setflags(write=False)
    slots.setflags(write=False)
    return FockBasis(n_particles=n, grid=grid, occupations=occ,
                     annihilators=annihilators, one_body=one_body,
                     diagonal_slots=slots)


@dataclass
class ManyBodyState:
    """Coefficient vector over a Fock basis."""

    basis: FockBasis
    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=np.complex128).ravel()
        if c.size != len(self.basis):
            raise DimensionError(
                f"coefficient vector has {c.size} entries, basis has {len(self.basis)}"
            )
        self.coefficients = c

    def norm(self) -> float:
        return float(np.linalg.norm(self.coefficients))


@dataclass
class SparseHamiltonian:
    """Real symmetric sparse matrix over a Fock basis."""

    basis: FockBasis
    matrix: scipy.sparse.csr_matrix


def interaction_matrix(grid: LatticeGrid, values: np.ndarray) -> np.ndarray:
    """V[x, y] = v(x - y) with periodic differences per axis."""
    v = np.asarray(values).reshape(grid.shape)
    s = grid.n_sites
    idx = np.arange(s)
    coords = np.array(np.unravel_index(idx, grid.shape))  # (d, s)
    diff = (coords[:, :, None] - coords[:, None, :]) % grid.m  # (d, s, s)
    return v[tuple(diff)]


def assemble_hamiltonian(grid: LatticeGrid, v, n: int,
                         basis: FockBasis) -> SparseHamiltonian:
    """The sector's one-body operator plus the diagonal pair term of field v."""
    if basis.grid != grid or basis.n_particles != n:
        raise DimensionError("basis does not match the requested (N, grid)")
    values = np.asarray(v.values, dtype=np.float64).ravel()
    if values.size != grid.n_sites:
        raise DimensionError("field does not live on the given grid")
    occ = basis.occupations
    pair = ((occ @ interaction_matrix(grid, values)) * occ).sum(axis=1)
    one_body = basis.one_body
    data = one_body.data.copy()
    data[basis.diagonal_slots] += (pair - float(values[0]) * n) / (2.0 * n)
    mat = scipy.sparse.csr_matrix((data, one_body.indices, one_body.indptr),
                                  shape=one_body.shape)
    return SparseHamiltonian(basis=basis, matrix=mat)


def product_state_lift(phi: WaveFunction, n: int, basis: FockBasis) -> ManyBodyState:
    """Coefficients of the N-fold product state phi^(x)N in the occupation basis."""
    if abs(phi.norm() - 1.0) > 1e-12:
        raise DomainError(f"product lift requires a unit state, norm = {phi.norm()!r}")
    if basis.sites != phi.grid.n_sites or basis.n_particles != n:
        raise DimensionError("basis does not match (N, grid)")
    u = phi.grid.cell_volume ** 0.5 * phi.amplitudes  # unit l2 vector
    occ = basis.occupations
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    coeffs = np.exp(0.5 * (log_fact[n] - log_fact[occ].sum(axis=1))).astype(np.complex128)
    powers = u[None, :] ** np.arange(n + 1)[:, None]  # powers[k, x] = u_x^k
    for x in range(basis.sites):
        coeffs *= powers[occ[:, x], x]
    return ManyBodyState(basis=basis, coefficients=coeffs)


def _matmul(mat, vec: np.ndarray) -> np.ndarray:
    """Real sparse matrix times a complex array, without a complex copy of mat."""
    flat = np.ascontiguousarray(vec).view(np.float64).reshape(vec.shape[0], -1)
    return (mat @ flat).view(np.complex128).reshape((mat.shape[0],) + vec.shape[1:])


def evolve_manybody(psi0: ManyBodyState, h: SparseHamiltonian,
                    t: float) -> ManyBodyState:
    """Psi_t = e^{-i H t} Psi_0 by a truncated Taylor series.

    The series runs on H - mu, mu = tr(H)/dim, in s substeps of degree up to
    m, where (m, s) minimizes m*s subject to ||t(H - mu)||_1 / s <= theta_m.
    A substep stops early once two successive terms are below the roundoff.
    """
    if (h.basis.n_particles, len(h.basis)) != (psi0.basis.n_particles, len(psi0.basis)):
        raise DimensionError("state and Hamiltonian use different bases")
    if t < 0:
        raise DomainError(f"evolution time must be nonnegative, got {t}")
    if abs(psi0.norm() - 1.0) > 1e-12:
        raise DomainError("evolve_manybody requires a normalized state")
    f = psi0.coefficients.copy()
    if t == 0:
        return ManyBodyState(psi0.basis, f)
    mat = h.matrix
    diag = mat.diagonal()
    mu = float(diag.mean())
    col_sums = np.bincount(mat.indices, weights=np.abs(mat.data),
                           minlength=mat.shape[1])
    norm = t * float(np.max(col_sums - np.abs(diag) + np.abs(diag - mu)))
    cost, m = min((m * math.ceil(norm / theta), m) for m, theta in _THETA.items())
    s = max(cost // m, 1)
    step = -1j * t / s
    phase = np.exp(-1j * mu * t / s)
    for _ in range(s):
        b = f
        c1 = np.max(np.abs(b))
        for j in range(1, m + 1):
            b = (step / j) * (_matmul(mat, b) - mu * b)
            c2 = np.max(np.abs(b))
            f += b
            if c1 + c2 <= _UNIT_ROUNDOFF * np.max(np.abs(f)):
                break
            c1 = c2
        f *= phase
    return ManyBodyState(psi0.basis, f)


# --- reduced density matrices and expectations ----------------------------

def reduced_density_matrix(psi: ManyBodyState, p: int,
                           grid: LatticeGrid) -> np.ndarray:
    """Trace-one p-particle reduced density matrix as a kernel on lattice^p."""
    n = psi.basis.n_particles
    sites = psi.basis.sites
    if p < 1 or p > n:
        raise DomainError(f"need 1 <= p <= N, got p={p}, N={n}")
    if sites != grid.n_sites:
        raise DimensionError("state does not live on the given grid")
    if p > len(psi.basis.annihilators):
        raise DomainError(f"the basis was built for RDMs up to order "
                          f"{len(psi.basis.annihilators)}, got p={p}")
    # column X of w is a_{x_k}...a_{x_1} Psi, X = (x_1..x_k) in row-major order
    w = psi.coefficients[:, None]
    for a in psi.basis.annihilators[:p]:
        w = _matmul(a, w).reshape(sites, -1, w.shape[1])
        w = w.transpose(1, 2, 0).reshape(w.shape[1], -1)
    raw = w.T @ w.conj()  # raw[X, Y] = <a_Y Psi, a_X Psi>
    scale = math.exp(math.lgamma(n - p + 1) - math.lgamma(n + 1))
    return (scale / grid.cell_volume ** p) * raw


def manybody_expectation(psi: ManyBodyState, a: PObservable, grid: LatticeGrid,
                         norm_bound: float | None = None) -> float:
    """X_N = lift_factor(N, p) * Tr(a gamma^(p)), with the pathwise bound checked."""
    n = psi.basis.n_particles
    if a.p > n:
        raise DomainError(f"observable acts on {a.p} particles but N = {n}")
    gamma = reduced_density_matrix(psi, a.p, grid)
    weight = grid.cell_volume ** (2 * a.p)
    val = weight * np.sum(a.kernel * gamma.T)
    if abs(val.imag) >= 1e-10:
        raise ConsistencyError(
            f"many-body expectation has imaginary residue {val.imag:.3e}"
        )
    x = float(val.real) * lift_factor(n, a.p)
    bound = operator_norm(a, grid) if norm_bound is None else norm_bound
    if abs(x) > bound + 1e-12:
        raise ConsistencyError(
            f"|X_N| = {abs(x)!r} exceeds the observable norm {bound!r}"
        )
    return x


def energy_expectation(psi: ManyBodyState, h: SparseHamiltonian) -> float:
    val = np.vdot(psi.coefficients, h.matrix @ psi.coefficients)
    return float(val.real)
