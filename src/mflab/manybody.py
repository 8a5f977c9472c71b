"""Exact N-boson dynamics on the lattice.

A FockBasis is one N-particle sector, built once and only read afterwards:
the occupation vectors with total N in lexicographic order, where a vector's
position is its rank in the combinatorial number system (Knuth, TAOCP 4A,
7.2.1.3), and the field-independent operators its states are read through:
the hopping CSR matrix one_body = sum_{x != y} T_{xy} adag_x a_y and the p
annihilator gathers below it. Each sector is built on its own: the sectors
N-p to N are enumerated directly, by one slice and one repeat per (site,
total). Adding a particle at x changes a vector's rank by sums over one
lookup table, so each of the p annihilators between them is written directly
as a gather, (a_x Psi)[k] = wt[k, x] * Psi[idx[k, x]], and one_body from the
top one, with no sparse products. The rest of H is diagonal in the occupation
basis: sum_x T_xx n_x = N T_xx, the same on every state, and the pair term
    (1/2N) sum_{x,y} v(x-y) adag_x adag_y a_y a_x = (occ V occ - v(0) N) / 2N,
which reproduces (1/N) sum_{i<j} v(x_i - x_j) exactly, including same-site
pairs with weight v(0) n_x (n_x - 1)/2. So a field's Hamiltonian is the
(dim,) array h of both, and H = one_body + diag(h), one_body shared by every field.
A sector may be built halved, as its mirror-even block: the grid's inversion
P: x -> -x commutes with H (the hopping is a symmetric stencil and the pair
term sees only the even part of v), so a state Psi with Psi(Pi) = Psi(i) for
every i stays so under e^{-iHt}, and is held by its values on the orbit
representatives, each state i with rank(i) <= rank(Pi) (Sandvik, AIP Conf.
Proc. 1297, 135, 2010). The block's
rows are those of H at the representatives, with each column moved to its
orbit, so every step below runs on the block as on a whole sector; only the
norm and <H> weight a representative by the size of its orbit, 1 or 2.
Propagation is one Chebyshev expansion of e^{-iHt} (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984) over an interval that provably holds the
spectrum of H, from the hopping dispersion and min/max of h, truncated by a
proven bound on its Bessel-coefficient tail; it draws no random numbers.
H is real, so the recurrence runs one loop on real vectors for each of
Re Psi_0 and Im Psi_0 that is not exactly zero. The sector holds the p
gathers its samples read, the top one composed with the orbit index on a
block, so it reads the whole Psi. The observable's SpectralFactors hold
h^{dp} K = sum_k mu_k |u_k^(x)p><u_k^(x)p|, so X_N = N^-p sum_k mu_k
||a(conj u_k)^p Psi||^2 with a(conj u) = sum_x conj(u_x) a_x: p contractions,
each through one gather, with no sites^p array and without forming the
reduced density matrix; the top gather gives the one-particle one.
_MAX_RT caps the r*t that sets the degree and check_lift the N of a finite lift,
both checked for a plan's largest N first; ensemble bounds the bytes of each
plan and checks that |X_N| <= ||a||.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DimensionError, DomainError, ResourceError
from .grid import LatticeGrid, WaveFunction, check_grid, check_unit, lattice_dispersion

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


def _enumerate(n: int, sites: int) -> np.ndarray:
    """The occupation vectors with total n on `sites` sites, in lexicographic
    order and in the narrowest unsigned dtype that holds n.

    A vector of total k on s + 1 sites is j = 0..k particles on its first site
    followed by a vector of total k - j on the s sites after it. So with the
    vectors E(k) on the last s sites stored by descending total, E(n), ...,
    E(0), each in lexicographic order, E(k) on s + 1 sites has the first
    column repeat(arange(k + 1), (dims of E(k), ..., E(0))) and the tail of
    that store from E(k) on as its other columns: one slice and one repeat
    per (site, total), O(sites * n) numpy calls. The last site builds only
    total n.
    """
    dtype = np.min_scalar_type(n)
    if n == 0:  # the vacuum, without the numpy calls of a step per site
        return np.zeros((1, sites), dtype=dtype)
    store = np.arange(n, -1, -1, dtype=dtype)[:, None]  # one site: totals n..0
    counts = np.ones(n + 1, dtype=np.int64)  # counts[k] = len(E(k)) on s sites
    for s in range(1, sites):
        sizes = np.cumsum(counts)  # sizes[k] = len(E(k)) on s + 1 sites
        totals = [n] if s == sites - 1 else range(n, -1, -1)
        out = np.empty((sizes[totals].sum(), s + 1), dtype=dtype)
        start = 0
        for k in totals:
            rows = slice(start, start + sizes[k])
            out[rows, 0] = np.repeat(np.arange(k + 1, dtype=dtype), counts[k::-1])
            out[rows, 1:] = store[len(store) - sizes[k]:]
            start = rows.stop
        store, counts = out, sizes
    return store[:fock_dimension(n, sites)]  # on one site, E(n) alone


def _add_particle(occ: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather of a_x from the n-particle sector onto the lexicographic
    (n-1)-particle occupations occ: (a_x Psi)[k] = wt[k, x] * Psi[idx[k, x]].

    idx[k, x] = rank(k + e_x) and wt[k, x] = sqrt(occ[k, x] + 1), C-contiguous
    (dim(n-1), sites) int32 and float64 arrays. By _rank, row k of occ has
    rank k = dim(n-1) - 1 - sum_j later[j-1, R_j], with R_j the suffix sums
    of k, and a particle at x raises R_j by one for j <= x, so
    idx[k, x] = dim(n) - dim(n-1) + k - sum_{j<=x} rise[j-1, R_j], where
    rise[j-1, r] = later[j-1, r + 1] - later[j-1, r]. The rank arithmetic is
    int64 on _blocks of occ's rows, so no temporary is (dim, sites) int64.
    """
    sub_dim, sites = occ.shape
    shift = fock_dimension(n, sites) - sub_dim
    rise = np.diff(_later(sites, n), axis=1)
    j = np.arange(sites - 1)
    # int32: every rank is below dim, which build_fock_basis keeps below 2^31
    idx = np.empty((sub_dim, sites), dtype=np.int32)
    wt = np.empty((sub_dim, sites))
    for rows in _blocks(sub_dim):
        block = occ[rows]
        suffix = np.cumsum(block[:, ::-1], axis=1, dtype=np.int64)[:, ::-1]
        raised = np.zeros(block.shape, dtype=np.int64)
        np.cumsum(rise[j, suffix[:, 1:]], axis=1, out=raised[:, 1:])
        k = np.arange(rows.start, rows.start + len(block))
        idx[rows] = (shift + k)[:, None] - raised
        # + 1.0: the weights must be float64, and sqrt of a uint8 is a float16
        wt[rows] = np.sqrt(block + 1.0)
    return idx, wt


def _kinetic_diagonal(grid: LatticeGrid) -> float:
    """T_xx = 2d/h^2, the diagonal of T = -Lap, the same at every site."""
    return 2.0 * grid.d / grid.h ** 2


def kinetic_matrix(grid: LatticeGrid) -> scipy.sparse.csr_matrix:
    """T = -Lap, the 2d+1-point periodic stencil, as a CSR matrix with
    sorted rows and O(sites * d) entries.

    _kinetic_diagonal on the diagonal and, per axis, -1/h^2 at each of the two
    periodic neighbours (one site on M = 2, which gets -2/h^2). Its
    eigenvalues are lattice_dispersion(grid).
    """
    idx = np.arange(grid.n_sites).reshape(grid.shape)
    inv_h2 = 1.0 / grid.h ** 2
    rows = np.tile(idx.ravel(), 2 * grid.d + 1)
    cols = np.concatenate([idx.ravel()] + [np.roll(idx, s, axis).ravel()
                                           for axis in range(grid.d) for s in (1, -1)])
    vals = np.repeat([_kinetic_diagonal(grid)] + [-inv_h2] * (2 * grid.d), grid.n_sites)
    # duplicates (the M = 2 neighbours) are summed here
    t = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(grid.n_sites,) * 2)
    t.sort_indices()
    return t


@dataclass(frozen=True, eq=False)
class FockBasis:
    """An N-boson sector on a grid, or its mirror-even block, and its
    field-independent operators.

    occupations[i] is the occupation vector of the block's row i, the i-th
    representative in rank order (every state on a whole sector), in the
    narrowest unsigned dtype that holds N (uint8 up to N = 255), so it takes
    dim * sites bytes; assemble_hamiltonian and the lift read it in row
    blocks, so their temporaries take O(dim) bytes, not 8 * dim * sites.
    one_body is the CSR matrix of the hopping sum_{x != y} T_{xy} adag_x a_y
    on those rows, with each column moved to its orbit, so a row may hold a
    column twice, or its own; with sorted rows and, on a whole sector, no
    diagonal entry (that is assemble_hamiltonian's).
    gathers holds the p annihilator gathers (idx, wt) from the N sector down
    to the N-p one, top first, each a C-contiguous (dim(n-1), sites) int32
    index and float64 weight (see _add_particle); the top one reads the
    block's coefficients c, (a_x Psi)[k] = wt[k, x] * c[idx[k, x]], and the
    sectors below it are whole. X_N and the RDM read them, and p is their
    count. halved tells a block from a whole sector, so the evenness checks
    run on a block only, and multiplicity is the size of each row's orbit,
    1 or 2, the weight of its coefficient in the norm.
    All are built by build_fock_basis, from the sectors N-p..N it enumerates
    and the p gathers of rank arithmetic between them, each array written
    once. The spectral interval of propagation needs no per-basis array: it
    comes from the lattice dispersion and N, and the block's spectrum is part
    of the sector's. All arrays are read-only, so the one basis built per
    plan serves every sample and no sample can alter it for the next.
    """

    n_particles: int
    grid: LatticeGrid
    occupations: np.ndarray
    one_body: scipy.sparse.csr_matrix
    gathers: tuple[tuple[np.ndarray, np.ndarray], ...]
    halved: bool
    multiplicity: np.ndarray

    def __len__(self) -> int:
        return self.occupations.shape[0]

    @property
    def p(self) -> int:
        return len(self.gathers)


def _blocks(length: int) -> list[slice]:
    """Consecutive slices of at most _BLOCK_ROWS that cover range(length).

    A step over the rows of a (dim, sites) array runs block by block, so
    that its temporaries take
    O(_BLOCK_ROWS * sites) bytes, not O(dim * sites); a step that treats each
    row alone gives the same bits as one pass over all rows.
    """
    return [slice(i, i + _BLOCK_ROWS) for i in range(0, length, _BLOCK_ROWS)]


def _one_body(idx: np.ndarray, wt: np.ndarray, lower_occ: np.ndarray,
              t: scipy.sparse.csr_matrix, orbit: np.ndarray,
              rep: np.ndarray) -> scipy.sparse.csr_matrix:
    """CSR of the hopping sum_{x != y} T_xy adag_x a_y on the representative
    rows of the N sector, from the gather (idx, wt) of a_x onto the N-1 sector
    lower_occ (see _add_particle); rep[i] tells whether the state of rank i is
    a representative, and orbit[i] is the block row of i's orbit.

    Each (k, x) whose state i = idx[k, x] = k + e_x is a representative is one
    occupied x of row orbit[i], and writes that row's entries for the
    neighbours y of x straight to their slot: deg entries per occupied site of
    i, in the order of x, so the offset of (k, x) in the row is deg times the
    occupied sites of k before x. Neighbour y has column orbit[idx[k, y]], the
    orbit of rank(k + e_y), and value T_xy * wt[k, y] * wt[k, x]. A state and
    its mirror image share a column, so a row may hold a column twice; the
    CSR product sums them. Its rows are sorted last. Each block of idx is
    replaced by its orbits once read, so idx leaves as the gather of a_x from
    the block: (a_x Psi)[k] = wt[k, x] * c[idx[k, x]] for Psi's block c.
    """
    sites = t.shape[0]
    # every site has the same number of neighbours, in sorted columns
    off = t.indices != np.repeat(np.arange(sites), np.diff(t.indptr))
    nbr = t.indices[off].astype(np.intp).reshape(sites, -1)
    deg = nbr.shape[1]
    # per neighbour j and site x: T_xy, and y - x, the step from (k, x) to (k, y)
    # in a row-major block
    amp = t.data[off].reshape(sites, deg).T.copy()
    step = (nbr - np.arange(sites)[:, None]).T.copy()
    # row i holds deg entries per occupied site, and each is one (k, x); int32
    # indices: nnz <= deg * sites * dim(N-1), which build_fock_basis keeps below 2^31
    indptr = np.zeros(np.count_nonzero(rep) + 1, dtype=np.int32)
    np.cumsum(deg * np.bincount(idx.ravel())[rep], out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    # a block of rows k at a time, flattened, one neighbour per pass, so that
    # no temporary beside indices and data is more than (_BLOCK_ROWS, sites)
    for rows in _blocks(len(idx)):
        idx_k, wt_k = idx[rows].ravel(), wt[rows].ravel()
        occupied = lower_occ[rows] != 0
        before = np.cumsum(occupied, axis=1, dtype=np.int32)
        before -= occupied
        kx = np.flatnonzero(np.take(rep, idx_k))  # the (k, x) of representatives
        x = kx % sites
        cols, wt_x = np.take(orbit, idx_k), np.take(wt_k, kx)
        # a representative's orbit is its row
        start = np.take(indptr, np.take(cols, kx))
        start += deg * np.take(before, kx)
        for j in range(deg):
            ky = np.take(step[j], x)
            ky += kx
            slot = start + j
            indices[slot] = np.take(cols, ky)
            # T_xy * a_y * a_x, rounded as A^T (T A) rounds it
            val = np.take(amp[j], x)
            val *= np.take(wt_k, ky)
            val *= wt_x
            data[slot] = val
        idx[rows] = cols.reshape(-1, sites)
    one_body = scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1,) * 2)
    one_body.sort_indices()
    return one_body


def check_propagation(n: int, grid: LatticeGrid, t: float) -> None:
    """Fail with a ResourceError if no field can propagate the N-particle sector
    to time t: whatever h, _spectral_interval's r is at least its r at h = 0."""
    x = _spectral_interval(n, grid, 0.0)[1] * t
    if x > _MAX_RT:
        raise ResourceError(f"propagation of N={n} to t = {t!r} needs r*t >= {x!r} "
                            f"for every field, beyond the cap {_MAX_RT}")


def _orbits(base: np.ndarray, gathers: tuple[tuple[np.ndarray, np.ndarray], ...],
            mirror: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbits {i, Pi} of the N sector under the grid's inversion P, the
    site permutation mirror, from the occupations of the N-p sector and the
    gathers of the p steps above it, the top one first.

    _rank gives rank(Pk) on the N-p sector, in _blocks of its rows. Above it,
    P(k + e_x) = Pk + e_{P(x)}, so rank(P(k + e_x)) = idx[rank(Pk), P(x)]
    climbs one gather at a time; every state of a sector is some k + e_x.
    Returns rep, whether rank(i) <= rank(Pi), which makes i the representative
    of its orbit; orbit, the block row of the representative of i's orbit; and
    the size of each representative's orbit, 1 or 2.
    """
    mirrored = np.concatenate([_rank(base[rows][:, mirror], n - len(gathers))
                               for rows in _blocks(len(base))])
    sites = len(mirror)
    for particles, (idx, _) in zip(range(n - len(gathers) + 1, n + 1), reversed(gathers)):
        up = np.empty(fock_dimension(particles, sites), dtype=idx.dtype)
        up[idx] = np.take(idx, mirrored, axis=0)[:, mirror]
        mirrored = up
    rank = np.arange(len(mirrored))
    rep = mirrored >= rank
    orbit = (np.cumsum(rep, dtype=np.int32) - 1)[np.minimum(rank, mirrored)]
    return rep, orbit, (mirrored != rank)[rep].astype(np.uint8) + 1


def build_fock_basis(n: int, grid: LatticeGrid, p: int = 1, halved: bool = False) -> FockBasis:
    """The N-particle sector with its p gathers, or if halved its mirror-even block.

    The sectors N-p..N are enumerated directly (_enumerate), so no sector
    below N-p is built, and each of the last p steps is one _add_particle
    gather between two of them, kept as it is: 12 * sites * dim(n-1) bytes
    for the step to n (0.57 MiB for all four of p = 4, 8 sites, N = 8).
    one_body is built from the top one. The block keeps each state i with
    rank(i) <= rank(Pi) for the grid's inversion P, its orbit's representative
    (see _orbits), and the top gather is composed with the orbit index, so it
    reads the whole Psi. On a whole sector every state is its own orbit, and
    nothing is ranked. A sector whose int32 ranks and CSR indices could not
    hold 2d * sites * dim(n-1), the bound on its hopping entries, is refused
    with a ResourceError before it is enumerated.
    """
    if not 1 <= p <= n:
        raise DomainError(f"need 1 <= p <= N, got p={p}, N={n}")
    sites = grid.n_sites
    entries = 2 * grid.d * sites * fock_dimension(n - 1, sites)
    if entries >= 2 ** 31:
        raise ResourceError(f"the N={n} sector on {sites} sites needs {entries:,} "
                            f"int32 hopping indices, beyond 2^31")
    base = occ = _enumerate(n - p, sites)
    gathers = ()
    for particles in range(n - p + 1, n + 1):
        gathers = (_add_particle(occ, particles),) + gathers
        lower, occ = occ, _enumerate(particles, sites)
    if halved:
        rep, orbit, multiplicity = _orbits(base, gathers, grid.inversion(), n)
    else:
        dim = len(occ)
        rep, orbit, multiplicity = (np.ones(dim, dtype=bool), np.arange(dim, dtype=np.int32),
                                    np.ones(dim, dtype=np.uint8))
    # composes the top gather with orbit, so it reads the block
    one_body = _one_body(*gathers[0], lower, kinetic_matrix(grid), orbit, rep)
    occ = occ[rep]
    for arr in (occ, one_body.data, one_body.indices, one_body.indptr, multiplicity,
                *sum(gathers, ())):
        arr.setflags(write=False)
    return FockBasis(n_particles=n, grid=grid, occupations=occ, one_body=one_body,
                     gathers=gathers, halved=halved, multiplicity=multiplicity)


@dataclass
class ManyBodyState:
    """Coefficient vector over a Fock basis: Psi at each of its rows, so on a
    mirror-even block Psi at each orbit's representative."""

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
        """||Psi||, each coefficient weighted by the size of its orbit."""
        c = self.coefficients
        return float(np.sqrt(self.basis.multiplicity @ (c.real ** 2 + c.imag ** 2)))


def interaction_matrix(grid: LatticeGrid, values: np.ndarray) -> np.ndarray:
    """V[x, y] = v(x - y), periodic per axis, through one flat (sites, sites) index
    built axis by axis from the (M, M) table of (i - j) mod M: one temporary."""
    index = np.zeros((grid.n_sites,) * 2, dtype=np.intp)
    table = np.subtract.outer(np.arange(grid.m), np.arange(grid.m)) % grid.m
    for axis in range(grid.d):
        coord = np.arange(grid.n_sites) // grid.m ** (grid.d - 1 - axis) % grid.m
        index *= grid.m
        index += table[coord[:, None], coord]
    return np.asarray(values).reshape(grid.n_sites)[index]


def _check_mirror_even(basis: FockBasis, values: np.ndarray, what: str) -> None:
    """On a mirror-even block, reject site values that are not even. The block
    holds no other state, and it stands for the sector of an even field: the
    Hartree flow sees all of v, the pair term only its even part, so only an
    even v gives both one interaction."""
    if basis.halved and not basis.grid.is_even(values):
        raise DomainError(f"{what} differs from its mirror image, and the sector "
                          f"holds only its mirror-even block")


def assemble_hamiltonian(basis: FockBasis, v) -> np.ndarray:
    """The diagonal h of H (the kinetic N T_xx plus the pair term) of field v on
    the basis's rows, as a float64 (dim,) array; H = basis.one_body + diag(h).
    On a mirror-even block, v must equal its mirror image."""
    n = basis.n_particles
    check_grid(v.grid, basis.grid, "the field")
    values = np.asarray(v.values, dtype=np.float64).ravel()
    _check_mirror_even(basis, values, "the field")
    occ = basis.occupations
    v_mat = interaction_matrix(basis.grid, values)
    pair = np.empty(len(occ))
    for rows in _blocks(len(occ)):
        pair[rows] = ((occ[rows] @ v_mat) * occ[rows]).sum(axis=1)
    return (pair - float(values[0]) * n) / (2.0 * n) + n * _kinetic_diagonal(basis.grid)


def product_state_lift(phi: WaveFunction, basis: FockBasis) -> ManyBodyState:
    """Coefficients of the N-fold product state phi^(x)N in the occupation
    basis, N being the basis's particle number. On a mirror-even block, phi
    must equal its mirror image, so that the block holds phi^(x)N; N must pass
    check_lift."""
    check_unit(phi.norm(), "product lift")
    check_grid(phi.grid, basis.grid, "the state")
    _check_mirror_even(basis, phi.amplitudes, "the state")
    n = basis.n_particles
    check_lift(n, basis.grid)
    u = phi.grid.cell_volume ** 0.5 * phi.amplitudes  # unit l2 vector
    occ = basis.occupations
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    log_norm = np.empty(len(occ))
    for rows in _blocks(len(occ)):
        log_norm[rows] = log_fact[occ[rows]].sum(axis=1)
    coeffs = np.exp(0.5 * (log_fact[n] - log_norm)).astype(np.complex128)
    powers = u[None, :] ** np.arange(n + 1)[:, None]  # powers[k, x] = u_x^k
    for x in range(basis.grid.n_sites):
        coeffs *= powers[occ[:, x], x]
    return ManyBodyState(basis=basis, coefficients=coeffs)


def check_lift(n: int, grid: LatticeGrid) -> None:
    """Fail with a DomainError if the lift of an N-fold product state overflows:
    its prefactor sqrt(N! / prod_x n_x!) peaks at the most even occupation,
    q or q + 1 per site for q, r = divmod(N, sites), which every sector and
    block holds, and must stay below the largest double."""
    q, r = divmod(n, grid.n_sites)
    peak = 0.5 * (math.lgamma(n + 1) - r * math.lgamma(q + 2)
                  - (grid.n_sites - r) * math.lgamma(q + 1))
    if peak > math.log(np.finfo(float).max):
        raise DomainError(f"the product state of N={n} on {grid.n_sites} sites has a "
                          f"coefficient prefactor of e^{peak:.6g}, beyond the largest double")


def _check_diagonal(basis: FockBasis, h) -> None:
    if np.shape(h) != (len(basis),):
        raise DimensionError(
            f"diagonal of H has shape {np.shape(h)}, the basis has {len(basis)} states")


def _spectral_interval(n: int, grid: LatticeGrid, h) -> tuple[float, float]:
    """Center c and half-width r of an interval that holds every eigenvalue of
    H = one_body + diag(h) on the N sector.

    one_body is the second quantization of the hopping T - T_xx (T = -Lap),
    whose eigenvalues are lattice_dispersion - T_xx, so on the N sector its
    spectrum lies in N times their range; by Weyl's inequality diag(h) widens
    that by [min h, max h]. r > 0: LatticeGrid requires m >= 2, so max > min.
    """
    lam = lattice_dispersion(grid) - _kinetic_diagonal(grid)
    lo = n * float(lam.min()) + float(np.min(h))
    hi = n * float(lam.max()) + float(np.max(h))
    return (hi + lo) / 2, (hi - lo) / 2


def _chebyshev_degree(x: float) -> int:
    """The smallest k >= 1 with 2 (x/2)^{k+1}/(k+1)! / (1 - x/(2(k+2))) <= 2^-53.

    |J_j(x)| <= (x/2)^j / j! (DLMF 10.14.4), and past j = k+1 successive bounds
    shrink by at least x/(2(k+2)) < 1, so this bounds sum_{j>k} 2|J_j(x)|.
    """
    if x / 2 == 0:  # x <= 2^-1074 or r*t = 0: the k = 1 bound x^2/4 is 0, log(x/2) fails
        return 1
    k = 1
    while True:
        q = x / (2.0 * (k + 2))
        if q < 1 and (math.log(2.0) + (k + 1) * math.log(x / 2) - math.lgamma(k + 2)
                      - math.log1p(-q)) <= math.log(_UNIT_ROUNDOFF):
            return k
        k += 1


def _bessel_j(x: float, k: int) -> np.ndarray:
    """J_0(x), ..., J_k(x) for x >= 0 by Miller's backward recurrence.

    The recurrence J_{n-1} = (2n/x) J_n - J_{n+1} runs down from J_{s+1} = 0,
    J_s = 1 at an even s well past k (Numerical Recipes, bessj), and is
    normalized by J_0 + 2 sum_n J_{2n} = 1. A step whose (2n/x) J_n would pass
    2^1000 first rescales every value by the power of two that brings J_n
    below 1, which rounds nothing (at x <= 300 no value passes 4e184). Where
    the first step 2s/x overflows, x < 2s 2^-1024, so J_0 = 1 - x^2/4 + ...,
    J_1 = x/2 - ... and J_n <= (x/2)^2 for n >= 2 round to 1, x/2 and 0.
    """
    s = k + 2 + math.isqrt(160 * k)
    s += s % 2
    # 2s/x > 2^1024, so the first step would overflow; scaling s, not x, by the
    # power of two is exact and cannot itself overflow
    if x < s * 2.0 ** -1023:
        return np.array([1.0, x / 2] + [0.0] * (k - 1))[:k + 1]
    j = [0.0, 1.0]
    for n in range(s, 0, -1):
        step = 2.0 * n / x
        if abs(j[-1]) * step > 2.0 ** 1000:
            j = [math.ldexp(val, -math.frexp(j[-1])[1]) for val in j]
        j.append(step * j[-1] - j[-2])
    j = np.array(j[:0:-1])  # J_0 .. J_s, unnormalized
    return j[:k + 1] / (j[0] + 2.0 * j[2::2].sum())


def evolve_manybody(psi0: ManyBodyState, h: np.ndarray, t: float) -> ManyBodyState:
    """Psi_t = e^{-i H t} Psi_0, H = one_body + diag(h), by one Chebyshev expansion.

    With [c - r, c + r] an interval holding the spectrum of H and A = (H - c)/r,
    e^{-iHt} = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(A). The series
    stops at the degree K whose Bessel tail is provably below 2^-53, and
    T_k(A) u follows the three-term recurrence. A is real, so each real part
    u of Psi_0 = Re + i Im that is not exactly zero runs its own loop on real
    vectors, one sparse product per degree. (-i)^k J_k is real for even k and
    imaginary for odd k, so the loop sums the even-degree and the odd-degree
    terms apart, each in the order of k, and adds (even + i odd) unit e^{-ict}
    to the result once, unit being 1 for Re and i for Im; numpy rounds x y and
    x (i y) alike, so Psi_0 = i u gives i times the result for u bit for bit.
    A ResourceError stops r*t above _MAX_RT, or not a number, before the degree
    search, which thus always ends. At t = 0 the degree is 1, J = (1, 0) and
    the phase 1, so Psi_0 comes back bit for bit, and a NaN or infinite h fails
    there too, r*t being NaN.
    """
    _check_diagonal(psi0.basis, h)
    if not (t >= 0):
        raise DomainError(f"evolution time must be nonnegative, got {t}")
    check_unit(psi0.norm(), "evolve_manybody")
    f = psi0.coefficients
    mat = psi0.basis.one_body
    c, r = _spectral_interval(psi0.basis.n_particles, psi0.basis.grid, h)
    x = r * t
    if not (x <= _MAX_RT):
        raise ResourceError(f"propagation needs r*t = {x!r} (half-width {r!r}, "
                            f"t = {t!r}), beyond the cap {_MAX_RT}")
    k = _chebyshev_degree(x)
    # (2 - delta_j0) (-i)^j J_j, over i for odd j, so that all are real
    coef = 2.0 * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(k + 1) % 4] * _bessel_j(x, k)
    coef[0] /= 2
    shift = h - c
    phase = np.exp(-1j * c * t)
    out = np.zeros(len(f), dtype=np.complex128)
    for unit, u in ((1.0, f.real), (1j, f.imag)):
        if not u.any():
            continue
        # numpy divides a complex vector by r as a product with 1 / r, so
        # each part rounds as in a recurrence on complex vectors
        prev, cur = u, (mat @ u + shift * u) * (1.0 / r)
        sums = [coef[0] * prev, coef[1] * cur]  # the even and the odd degrees
        for j in range(2, k + 1):
            nxt = mat @ cur
            nxt += shift * cur
            nxt *= 2.0 / r
            nxt -= prev
            prev, cur = cur, nxt
            sums[j % 2] += coef[j] * cur
        out += (sums[0] + 1j * sums[1]) * (unit * phase)
    return ManyBodyState(psi0.basis, out)


# --- reduced density matrices and expectations ----------------------------

def _gathered(idx: np.ndarray, wt: np.ndarray, c: np.ndarray):
    """The row blocks of w = wt * c[idx], w[k, x] = (a_x Psi)[k] for the gather
    (idx, wt) and the coefficients c of Psi."""
    for rows in _blocks(len(idx)):
        w = np.take(c, idx[rows])
        w *= wt[rows]
        yield w


def _lowered(blocks, idx: np.ndarray, wt: np.ndarray, u: np.ndarray):
    """The row blocks of z'[m, k] = sum_x wt[m, x] z[idx[m, x], k] u[x, k], the step
    of the gather (idx, wt) on the columns of z, from the row blocks of z; z is
    held whole, as idx reads it at random."""
    z = np.concatenate(list(blocks))
    for rows in _blocks(len(idx)):
        yield np.einsum("mxk,mx,xk->mk", z[idx[rows]], wt[rows], u)


def reduced_density_matrix(psi: ManyBodyState) -> np.ndarray:
    """Trace-one one-particle reduced density matrix as a kernel on the lattice,
    from the top gather of psi's sector, whatever its order p.

    gamma[x, y] = <a_y Psi, a_x Psi> / (N h^d), the raw Gram (w^T conj(w))[x, y]
    summed block by block.
    """
    basis = psi.basis
    raw = sum(w.T @ w.conj() for w in _gathered(*basis.gathers[0], psi.coefficients))
    return (1.0 / (basis.n_particles * basis.grid.cell_volume)) * raw


def manybody_expectation(psi: ManyBodyState, factors) -> float:
    """X_N = N!/(N^p (N-p)!) Tr(a gamma^(p)) from the p gathers of psi's sector
    and the observable's SpectralFactors, which must be of the sector's order p.

    With h^{dp} K = sum_k mu_k |u_k^(x)p><u_k^(x)p|, X_N = N^-p sum_k mu_k
    ||a(conj u_k)^p Psi||^2, a(conj u) = sum_x conj(u_x) a_x. The column k of
    z_j = conj(a(conj u_k)^j Psi) is one contraction through the j-th gather:
    z_1 = conj(w) u, w from the top gather, in row blocks, and each lower step
    is _lowered, which holds z_{j-1} whole; a plan checks |X_N| <= ||a||.
    """
    basis = psi.basis
    check_grid(factors.grid, basis.grid, "the observable")
    if factors.p != basis.p:
        raise DimensionError(f"the factors are of order p={factors.p}, the state's "
                             f"sector gathers order p={basis.p}")
    z = (w @ factors.u for w in _gathered(*basis.gathers[0], psi.coefficients.conj()))
    for idx, wt in basis.gathers[1:]:
        z = _lowered(z, idx, wt, factors.u)
    return factors.weighted_squares(z) / basis.n_particles ** basis.p


def energy_expectation(psi: ManyBodyState, h: np.ndarray) -> float:
    """<Psi, H Psi> for H = one_body + diag(h), each row weighted by the size of
    its orbit: H Psi is even as Psi is."""
    _check_diagonal(psi.basis, h)
    c = psi.coefficients
    hc = h * c
    hc.real += psi.basis.one_body @ c.real
    hc.imag += psi.basis.one_body @ c.imag
    return float(np.vdot(c, psi.basis.multiplicity * hc).real)
