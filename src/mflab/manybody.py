"""Exact N-boson dynamics on the lattice.

A FockBasis is one N-particle sector, built once and only read afterwards:
the occupation vectors with total N in lexicographic order, where a vector's
position is its rank in the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3), and the field-independent operators: the stacked annihilation maps
a_x for the reduced density matrices and the one-body CSR matrix
sum_{x,y} T_{xy} adag_x a_y. Each sector is built on its own, upward from
the vacuum: adding a particle at x changes a vector's rank by sums over one
lookup table, so each annihilator is written directly as a CSR matrix with one
entry a row, and one_body row by row from the top annihilator, with no sparse
products. A field enters only through the pair term,
which is diagonal in the occupation basis:
    h = (1/2N) sum_{x,y} v(x-y) adag_x adag_y a_y a_x = (occ V occ - v(0) N) / 2N,
which reproduces (1/N) sum_{i<j} v(x_i - x_j) exactly, including same-site
pairs with weight v(0) n_x (n_x - 1)/2. So a field's Hamiltonian is the
(dim,) array h, and H = one_body + diag(h) with one one_body for every field.
Propagation is one Chebyshev expansion of e^{-iHt} (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984) over an interval that provably holds the
spectrum of H, from the lattice dispersion and min/max of h, truncated by a
proven bound on its Bessel-coefficient tail; it draws no random numbers.
DIMENSION_CAP caps each sector, and _MAX_RT the product r*t that sets the degree;
ensemble checks the pathwise bound |X_N| <= ||a|| against the plan's norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConsistencyError, DimensionError, DomainError, ResourceError
from .grid import LatticeGrid, WaveFunction, _laplacian_array
from .hartree import lattice_dispersion
from .observables import PObservable, lift_factor

DIMENSION_CAP = 200_000
# r*t at most 1e4 allows Chebyshev degree 13,623 (long_time needs at most 153)
_MAX_RT = 1e4

_UNIT_ROUNDOFF = 2.0 ** -53

_BLOCK_ROWS = 4096


def fock_dimension(n: int, sites: int) -> int:
    return math.comb(n + sites - 1, n)


def _later(sites: int, n: int) -> np.ndarray:
    """later[j-1, r] = C(r - 1 + sites - j, sites - j) for 1 <= j < sites and
    0 <= r <= n: the ways to put fewer than r particles on the sites j.."""
    return np.array([[math.comb(r - 1 + sites - j, sites - j) for r in range(n + 1)]
                     for j in range(1, sites)], dtype=np.int64)


def _rank(occupations: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic positions of occupation vectors (last axis) with total n.

    A later vector first differs at some site j-1 by holding more particles
    there, which leaves fewer than R_j = sum(occ[j:]) particles for the
    sites - j sites after it: later[j-1, R_j] completions.
    """
    occ = np.asarray(occupations, dtype=np.int64)
    sites = occ.shape[-1]
    suffix = np.cumsum(occ[..., ::-1], axis=-1)[..., ::-1]
    return (fock_dimension(n, sites) - 1
            - _later(sites, n)[np.arange(sites - 1), suffix[..., 1:]].sum(axis=-1))


def _add_particle(occ: np.ndarray, n: int) -> tuple[np.ndarray, scipy.sparse.csr_matrix]:
    """The n-particle sector from the lexicographic (n-1)-particle occupations occ.

    Returns the n-particle occupations, in lexicographic order and in the
    narrowest unsigned dtype that holds n (the rank arithmetic is int64), and
    the stacked annihilator a_x from it, a (sites * dim(n-1), dim(n)) CSR
    matrix whose row x*dim(n-1) + k holds one entry, sqrt(occ[k, x] + 1), at
    column rank(k + e_x). A particle at x raises R_j by one for j <= x, so by
    _rank that column is dim - 1 - sum_{j<=x} later[j-1, R_j + 1]
    - sum_{j>x} later[j-1, R_j], with R_j the suffix sums of k.
    """
    sub_dim, sites = occ.shape
    later = _later(sites, n)
    suffix = np.cumsum(occ[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
    j = np.arange(sites - 1)
    skipped = np.zeros((sub_dim, sites), dtype=np.int64)
    np.cumsum(later[j, suffix[:, 1:] + 1], axis=1, out=skipped[:, 1:])
    skipped[:, :-1] += np.cumsum(later[j, suffix[:, 1:]][:, ::-1], axis=1)[:, ::-1]
    cols = (fock_dimension(n, sites) - 1 - skipped).T
    # each n-particle vector is k + e_x for exactly one x at or before k's
    # first particle, i.e. with sum(occ[k, x:]) = n - 1
    ks, xs = np.nonzero(suffix == n - 1)
    dest = cols[xs, ks]
    raised = np.empty((dest.size, sites), dtype=np.min_scalar_type(n))
    raised[dest] = occ[ks]
    raised[dest, xs] += 1
    # + 1.0: the weights must be float64, and sqrt of a uint8 is a float16
    a = scipy.sparse.csr_matrix(
        (np.sqrt(occ.T + 1.0).ravel(), cols.ravel(), np.arange(cols.size + 1)),
        shape=(cols.size, dest.size))
    return raised, a


def kinetic_matrix(grid: LatticeGrid) -> np.ndarray:
    """One-particle matrix of -Lap (columns are stencil images of unit vectors)."""
    units = np.eye(grid.n_sites, dtype=np.complex128)
    return -np.stack([_laplacian_array(grid, e) for e in units], axis=1).real


@dataclass(frozen=True, eq=False)
class FockBasis:
    """An N-boson sector on a grid and its field-independent operators.

    occupations[i] is the occupation vector of rank i, in the narrowest
    unsigned dtype that holds N (uint8 up to N = 255), so it takes dim * sites
    bytes; the pair diagonal and the lift read it in row blocks, so their
    temporaries take O(dim) bytes, not 8 * dim * sites. annihilators[k] stacks
    a_x over the sites from the N-k sector to the N-k-1 sector, as a
    (sites * dim(N-k-1), dim(N-k)) matrix with one entry a row. one_body is
    the CSR matrix of sum_{x,y} T_{xy} adag_x a_y, kinetic diagonal included,
    with sorted rows. All are built by build_fock_basis from rank arithmetic,
    each array written once. The spectral interval of propagation needs no
    per-basis array: it comes from the lattice dispersion and N. All arrays
    are read-only, so the one basis built per plan serves every sample and
    no sample can alter it for the next.
    """

    n_particles: int
    grid: LatticeGrid
    occupations: np.ndarray
    annihilators: tuple[scipy.sparse.csr_matrix, ...]
    one_body: scipy.sparse.csr_matrix

    @property
    def sites(self) -> int:
        return self.grid.n_sites

    def __len__(self) -> int:
        return self.occupations.shape[0]

    def rank(self, occupations) -> np.ndarray:
        """Positions of occupation vectors (last axis) in this basis."""
        return _rank(occupations, self.n_particles)


def _blocks(length: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS that cover range(length).

    A step over the rows of a (dim, sites) array, or over an annihilator's
    entries, runs block by block, so that its temporaries take
    O(_BLOCK_ROWS * sites) bytes, not O(dim * sites); a step that treats each
    row alone gives the same bits as one pass over all rows.
    """
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, length, _BLOCK_ROWS)]


def _one_body(a: scipy.sparse.csr_matrix, occ: np.ndarray,
              t: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR of sum_{x,y} T_xy adag_x a_y on the sector with occupations occ
    and stacked annihilator a, as _add_particle builds them.

    Row i holds its diagonal sum_x T_xx n_x, then, for each occupied x of i
    (k = i - e_x, read from a's CSC) and each neighbour y of x, the entry at
    column rank(k + e_y) with value a_x(k) * (T_xy * a_y(k)), where a_x(k) is
    the one entry of a's row x*dim(N-1) + k and rank(k + e_y) is its column
    for y. Its rows are sorted last.
    """
    sites = t.shape[0]
    dim = occ.shape[0]
    sub_dim = a.shape[0] // sites
    diagonal = occ @ np.diag(t)  # first: it makes a float copy of occ
    off = t - np.diag(np.diag(t))
    # the periodic stencil gives every site the same number of neighbours
    nbr = np.nonzero(off)[1].reshape(sites, -1)
    amp = off[np.arange(sites)[:, None], nbr]
    deg = nbr.shape[1]
    nnz = dim + deg * a.nnz
    # int32 indices: under DIMENSION_CAP, nnz is at most 4,609,521 (d=3, M=3, N=5)
    csc = a.tocsc()
    x, k = np.divmod(csc.indices.astype(np.int32, copy=False), sub_dim)
    # row i holds its diagonal, then deg entries per entry of a's column i
    indptr = (np.arange(dim + 1) + deg * csc.indptr).astype(np.int32)
    slot = np.arange(0, deg * x.size, deg, dtype=np.int32)
    slot += np.repeat(np.arange(dim, dtype=np.int32), np.diff(csc.indptr))
    a_x = csc.data  # the rest of the CSC copy is freed here
    del csc
    indices = np.empty(nnz, dtype=np.int32)
    data = np.empty(nnz)
    indices[indptr[:-1]] = np.arange(dim)
    data[indptr[:-1]] = diagonal
    # a block of a's entries at a time, one neighbour slot per pass, so that
    # no temporary beside indices and data has more than _BLOCK_ROWS entries
    for entries in _blocks(x.size):
        x_e, k_e, a_e = x[entries].astype(np.intp), k[entries], a_x[entries]
        slot_e = slot[entries].astype(np.intp)
        for y, t_xy in zip(nbr.T, amp.T):
            slot_e += 1
            row = y[x_e]
            row *= sub_dim
            row += k_e  # a's row y*dim(N-1) + k
            indices[slot_e] = a.indices[row]
            value = t_xy[x_e]
            value *= a.data[row]
            value *= a_e  # a_x(k) * (T_xy * a_y(k)), rounded as A^T (T A) rounds it
            data[slot_e] = value
    one_body = scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    one_body.sort_indices()
    return one_body


def check_fock_dimension(n: int, grid: LatticeGrid) -> None:
    """Fail with a ResourceError if the N-particle sector exceeds DIMENSION_CAP."""
    dim = fock_dimension(n, grid.n_sites)
    if dim > DIMENSION_CAP:
        raise ResourceError(
            f"Fock sector for N={n}, M={grid.m} (d={grid.d}) has dimension {dim}, "
            f"exceeding the cap {DIMENSION_CAP}"
        )


def build_fock_basis(n: int, grid: LatticeGrid,
                     max_rdm_order: int | None = None) -> FockBasis:
    """The N-particle sector, climbed from the vacuum, with annihilation maps
    for RDMs of every order up to max_rdm_order (default and at most N)."""
    if n < 1:
        raise DomainError(f"particle number must be >= 1, got {n}")
    check_fock_dimension(n, grid)
    depth = n if max_rdm_order is None else min(max_rdm_order, n)
    occ, annihilators = np.zeros((1, grid.n_sites), dtype=np.uint8), ()
    for particles in range(1, n + 1):
        occ, a = _add_particle(occ, particles)
        annihilators = ((a,) + annihilators)[:depth]
    one_body = _one_body(annihilators[0], occ, kinetic_matrix(grid))
    for mat in (one_body, *annihilators):
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.setflags(write=False)
    occ.setflags(write=False)
    return FockBasis(n_particles=n, grid=grid, occupations=occ,
                     annihilators=annihilators, one_body=one_body)


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


def interaction_matrix(grid: LatticeGrid, values: np.ndarray) -> np.ndarray:
    """V[x, y] = v(x - y) with periodic differences per axis."""
    v = np.asarray(values).reshape(grid.shape)
    s = grid.n_sites
    idx = np.arange(s)
    coords = np.array(np.unravel_index(idx, grid.shape))  # (d, s)
    diff = (coords[:, :, None] - coords[:, None, :]) % grid.m  # (d, s, s)
    return v[tuple(diff)]


def assemble_hamiltonian(basis: FockBasis, v) -> np.ndarray:
    """The pair diagonal h of field v on the basis's sector, as a float64
    (dim,) array; the sector's Hamiltonian is H = basis.one_body + diag(h)."""
    n = basis.n_particles
    values = np.asarray(v.values, dtype=np.float64).ravel()
    if values.size != basis.sites:
        raise DimensionError(
            f"field has {values.size} sites, the basis grid has {basis.sites}")
    occ = basis.occupations
    v_mat = interaction_matrix(basis.grid, values)
    pair = np.empty(len(occ))
    for rows in _blocks(len(occ)):
        pair[rows] = ((occ[rows] @ v_mat) * occ[rows]).sum(axis=1)
    return (pair - float(values[0]) * n) / (2.0 * n)


def product_state_lift(phi: WaveFunction, basis: FockBasis) -> ManyBodyState:
    """Coefficients of the N-fold product state phi^(x)N in the occupation
    basis, N being the basis's particle number."""
    if not (abs(phi.norm() - 1.0) <= 1e-12):
        raise DomainError(f"product lift requires a unit state, norm = {phi.norm()!r}")
    if phi.grid != basis.grid:
        raise DimensionError("state does not live on the basis grid")
    n = basis.n_particles
    u = phi.grid.cell_volume ** 0.5 * phi.amplitudes  # unit l2 vector
    occ = basis.occupations
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_norm = np.empty(len(occ))
    for rows in _blocks(len(occ)):
        log_norm[rows] = log_fact[occ[rows]].sum(axis=1)
    coeffs = np.exp(0.5 * (log_fact[n] - log_norm)).astype(np.complex128)
    powers = u[None, :] ** np.arange(n + 1)[:, None]  # powers[k, x] = u_x^k
    for x in range(basis.sites):
        coeffs *= powers[occ[:, x], x]
    return ManyBodyState(basis=basis, coefficients=coeffs)


def _matmul(mat, vec: np.ndarray) -> np.ndarray:
    """Real sparse matrix times a complex array, without a complex copy of mat."""
    flat = np.ascontiguousarray(vec).view(np.float64).reshape(vec.shape[0], -1)
    return (mat @ flat).view(np.complex128).reshape((mat.shape[0],) + vec.shape[1:])


def _check_diagonal(basis: FockBasis, h) -> None:
    if np.shape(h) != (len(basis),):
        raise DimensionError(
            f"pair diagonal has shape {np.shape(h)}, the basis has {len(basis)} states")


def _spectral_interval(basis: FockBasis, h: np.ndarray) -> tuple[float, float]:
    """Center c and half-width r of an interval that holds every eigenvalue of
    H = one_body + diag(h).

    one_body is the second quantization of T = -Lap, whose eigenvalues are
    lattice_dispersion, so on the N sector its spectrum lies in
    [N min lambda, N max lambda]; by Weyl's inequality diag(h) widens that by
    [min h, max h]. r > 0: build_grid requires m >= 2, so max lambda > 0 = min lambda.
    """
    lam = lattice_dispersion(basis.grid)
    n = basis.n_particles
    lo = n * float(lam.min()) + float(np.min(h))
    hi = n * float(lam.max()) + float(np.max(h))
    return (hi + lo) / 2, (hi - lo) / 2


def _chebyshev_degree(x: float) -> int:
    """The smallest k >= 1 with 2 (x/2)^{k+1}/(k+1)! / (1 - x/(2(k+2))) <= 2^-53.

    |J_j(x)| <= (x/2)^j / j! (DLMF 10.14.4), and past j = k+1 successive bounds
    shrink by at least x/(2(k+2)) < 1, so this bounds sum_{j>k} 2|J_j(x)|.
    """
    k = 1
    while True:
        q = x / (2.0 * (k + 2))
        if q < 1 and (math.log(2.0) + (k + 1) * math.log(x / 2) - math.lgamma(k + 2)
                      - math.log1p(-q)) <= math.log(_UNIT_ROUNDOFF):
            return k
        k += 1


def _bessel_j(x: float, k: int) -> np.ndarray:
    """J_0(x), ..., J_k(x) for x > 0 by Miller's backward recurrence.

    The recurrence J_{n-1} = (2n/x) J_n - J_{n+1} runs down from J_{s+1} = 0,
    J_s = 1 at an even s well past k (Numerical Recipes, bessj), is rescaled
    before it can overflow, and is normalized by J_0 + 2 sum_n J_{2n} = 1.
    """
    s = k + 2 + math.isqrt(160 * k)
    s += s % 2
    j = [0.0, 1.0]
    for n in range(s, 0, -1):
        j.append(2.0 * n / x * j[-1] - j[-2])
        if abs(j[-1]) > 1e250:
            j = [val * 1e-250 for val in j]
    j = np.array(j[:0:-1])  # J_0 .. J_s, unnormalized
    return j[:k + 1] / (j[0] + 2.0 * j[2::2].sum())


def evolve_manybody(psi0: ManyBodyState, h: np.ndarray, t: float) -> ManyBodyState:
    """Psi_t = e^{-i H t} Psi_0, H = one_body + diag(h), by one Chebyshev expansion.

    With [c - r, c + r] an interval holding the spectrum of H and A = (H - c)/r,
    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(A). The series
    stops at the degree K whose Bessel tail is provably below 2^-53, and
    T_k(A) Psi_0 follows the three-term recurrence, one sparse product per degree.
    A ResourceError stops r*t above _MAX_RT, or not a number, before the degree
    search, which thus always ends.
    """
    _check_diagonal(psi0.basis, h)
    if not (t >= 0):
        raise DomainError(f"evolution time must be nonnegative, got {t}")
    if not (abs(psi0.norm() - 1.0) <= 1e-12):
        raise DomainError("evolve_manybody requires a normalized state")
    f = psi0.coefficients
    if t == 0:
        return ManyBodyState(psi0.basis, f.copy())
    mat = psi0.basis.one_body
    c, r = _spectral_interval(psi0.basis, h)
    x = r * t
    if not (x <= _MAX_RT):
        raise ResourceError(f"propagation needs r*t = {x!r} (half-width {r!r}, "
                            f"t = {t!r}), beyond the cap {_MAX_RT}")
    k = _chebyshev_degree(x)
    coef = 2.0 * np.array([1, -1j, -1, 1j])[np.arange(k + 1) % 4] * _bessel_j(x, k)
    coef[0] /= 2
    shift = h - c
    prev, cur = f, (_matmul(mat, f) + shift * f) / r
    out = coef[0] * prev + coef[1] * cur
    for a in coef[2:]:
        prev, cur = cur, (2.0 / r) * (_matmul(mat, cur) + shift * cur) - prev
        out += a * cur
    out *= np.exp(-1j * c * t)
    return ManyBodyState(psi0.basis, out)


# --- reduced density matrices and expectations ----------------------------

def reduced_density_matrix(psi: ManyBodyState, p: int) -> np.ndarray:
    """Trace-one p-particle reduced density matrix as a kernel on lattice^p."""
    n = psi.basis.n_particles
    sites = psi.basis.sites
    if p < 1 or p > n:
        raise DomainError(f"need 1 <= p <= N, got p={p}, N={n}")
    if p > len(psi.basis.annihilators):
        raise DomainError(f"the basis was built for RDMs up to order "
                          f"{len(psi.basis.annihilators)}, got p={p}")
    # column X of w is a_{x_k}...a_{x_1} Psi, X = (x_1..x_k) in row-major order
    w = psi.coefficients[:, None]
    for a in psi.basis.annihilators[:p]:
        w = _matmul(a, w).reshape(sites, -1, w.shape[1])
        w = w.transpose(1, 2, 0).reshape(w.shape[1], -1)
    # raw[X, Y] = <a_Y Psi, a_X Psi>, with a conjugated copy of one row block
    # at a time, not of all of w
    raw = sum(w[rows].T @ w[rows].conj() for rows in _blocks(len(w)))
    scale = math.exp(math.lgamma(n - p + 1) - math.lgamma(n + 1))
    return (scale / psi.basis.grid.cell_volume ** p) * raw


def manybody_expectation(psi: ManyBodyState, a: PObservable) -> float:
    """X_N = lift_factor(N, p) * Tr(a gamma^(p)); a plan checks |X_N| <= ||a||."""
    if a.sites != psi.basis.sites:
        raise DimensionError("observable kernel does not match the basis grid")
    gamma = reduced_density_matrix(psi, a.p)
    val = psi.basis.grid.cell_volume ** (2 * a.p) * np.sum(a.kernel * gamma.T)
    if not (abs(val.imag) < 1e-10):
        raise ConsistencyError(
            f"many-body expectation has imaginary residue {val.imag:.3e}"
        )
    return float(val.real) * lift_factor(psi.basis.n_particles, a.p)


def energy_expectation(psi: ManyBodyState, h: np.ndarray) -> float:
    """<Psi, H Psi> for H = one_body + diag(h)."""
    _check_diagonal(psi.basis, h)
    c = psi.coefficients
    return float(np.vdot(c, _matmul(psi.basis.one_body, c) + h * c).real)
