"""Monte Carlo over field realizations.

Each sample draws one interaction realization and runs the Hartree flow and
the exact N-body dynamics for every N in the sweep against that same field
(common random numbers), so the pathwise gap Y_N = |X - X_N| is estimated
with low variance. Samples are independent work units; aggregation is a
deterministic fold over sample_index, so results do not depend on the
worker count.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError, MFLabError
from .grid import LatticeGrid, WaveFunction
from .hartree import HartreeRunParams, evolve_hartree_batch, hartree_expectation
from .manybody import (FockBasis, ManyBodyState, assemble_hamiltonian,
                       build_fock_basis, evolve_manybody, manybody_expectation,
                       product_state_lift)
from .observables import PObservable, operator_norm
from .random_field import FieldSpec, RandomField, mix_seed, sample_field


@dataclass(frozen=True)
class ExperimentPlan:
    grid: LatticeGrid
    field_spec: FieldSpec
    initial_state: WaveFunction
    observable: PObservable
    t_final: float
    dt: float
    particle_counts: tuple[int, ...]
    samples: int
    base_seed: int

    def __post_init__(self):
        counts = tuple(int(n) for n in self.particle_counts)
        if not counts:
            raise DomainError("particle_counts must be nonempty")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise DomainError("particle_counts must be strictly ascending")
        if counts[0] < 1:
            raise DomainError("particle counts must be positive")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        object.__setattr__(self, "particle_counts", counts)


@dataclass
class SampleResult:
    sample_index: int
    seed: int
    x_hartree: float
    x_manybody: dict[int, float]
    y: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.y:
            self.y = {n: abs(self.x_hartree - x) for n, x in self.x_manybody.items()}


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_x_manybody: float
    mean_x_hartree: float
    mean_y: float
    ci95_y: float
    samples: int


Sectors = dict[int, tuple[FockBasis, ManyBodyState]]


def _build_sectors(plan: ExperimentPlan) -> Sectors:
    """Per N, the field-independent sector and the lifted initial state."""
    sectors = {}
    for n in plan.particle_counts:
        basis = build_fock_basis(n, plan.grid, max_rdm_order=plan.observable.p)
        sectors[n] = (basis, product_state_lift(plan.initial_state, n, basis))
    return sectors


def _in_sample(exc: MFLabError, plan: ExperimentPlan, i: int) -> MFLabError:
    """The same error, prefixed with the sample it happened in."""
    return type(exc)(f"sample {i} (seed {mix_seed(plan.base_seed, i)}): {exc}")


def _hartree_flows(plan: ExperimentPlan, indices: Sequence[int]
                   ) -> list[tuple[RandomField, WaveFunction]]:
    """Each sample's field and psi_t, from one batched Hartree flow."""
    fields = [sample_field(plan.field_spec, mix_seed(plan.base_seed, i), plan.grid)
              for i in indices]
    try:
        params = HartreeRunParams(t_final=plan.t_final, dt=plan.dt, grid=plan.grid)
        states = evolve_hartree_batch(plan.initial_state, fields, params)
    except MFLabError as exc:
        raise _in_sample(exc, plan, indices[getattr(exc, "row", 0)]) from exc
    return list(zip(fields, states))


def run_sample(plan: ExperimentPlan, sample_index: int,
               observable_norm: float | None = None,
               sectors: Sectors | None = None,
               hartree: tuple[RandomField, WaveFunction] | None = None
               ) -> SampleResult:
    """One realization: Hartree once, many-body once per N, same field.

    sectors, from the plan, are shared read-only; hartree is this sample's
    field and psi_t from the batched flow. Each is computed here when omitted,
    the flow as a batch of one.
    """
    if not (0 <= sample_index < plan.samples):
        raise DomainError(
            f"sample_index {sample_index} outside 0..{plan.samples - 1}"
        )
    norm_a = (operator_norm(plan.observable, plan.grid)
              if observable_norm is None else observable_norm)
    if sectors is None:
        sectors = _build_sectors(plan)
    v, psi_t = _hartree_flows(plan, [sample_index])[0] if hartree is None else hartree
    try:
        x_h = hartree_expectation(psi_t, plan.observable)
        if abs(x_h) > norm_a + 1e-12:
            raise ConsistencyError(f"|X| = {abs(x_h)!r} exceeds the observable norm")
        x_mb = {}
        for n in plan.particle_counts:
            basis, psi0 = sectors[n]
            h = assemble_hamiltonian(plan.grid, v, n, basis)
            psi_n = evolve_manybody(psi0, h, plan.t_final)
            x_mb[n] = manybody_expectation(psi_n, plan.observable, plan.grid,
                                           norm_bound=norm_a)
    except MFLabError as exc:
        raise _in_sample(exc, plan, sample_index) from exc
    return SampleResult(sample_index=sample_index,
                        seed=mix_seed(plan.base_seed, sample_index),
                        x_hartree=x_h, x_manybody=x_mb)


def run_ensemble(plan: ExperimentPlan, threads: int | None = None) -> list[SampleResult]:
    """All samples, optionally concurrent; output ordered by sample_index.

    The sectors are built first, so a resource limit fails before any sample;
    then the Hartree flow runs once for all fields, and the many-body work of
    each sample is one task.
    """
    norm_a = operator_norm(plan.observable, plan.grid)
    sectors = _build_sectors(plan)
    flows = _hartree_flows(plan, range(plan.samples))

    def one(i: int) -> SampleResult:
        return run_sample(plan, i, observable_norm=norm_a, sectors=sectors,
                          hartree=flows[i])

    if threads is not None and threads <= 1:
        return [one(i) for i in range(plan.samples)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(plan.samples)))


def estimate(results: list[SampleResult]) -> list[SummaryRow]:
    """Per-N sample means with 95% normal-approximation half-widths."""
    if not results:
        raise DomainError("cannot summarize an empty result set")
    results = sorted(results, key=lambda r: r.sample_index)
    counts = sorted(results[0].x_manybody)
    s = len(results)
    rows = []
    for n in counts:
        xs = np.array([r.x_manybody[n] for r in results])
        ys = np.array([r.y[n] for r in results])
        xh = np.array([r.x_hartree for r in results])
        sd = float(np.std(ys, ddof=1)) if s > 1 else 0.0
        rows.append(SummaryRow(
            n=n,
            mean_x_manybody=float(np.mean(xs)),
            mean_x_hartree=float(np.mean(xh)),
            mean_y=float(np.mean(ys)),
            ci95_y=1.96 * sd / math.sqrt(s),
            samples=s,
        ))
    return rows


def tail_diagnostic(results: list[SampleResult], beta: float
                    ) -> tuple[dict[int, float], float]:
    """Empirical E(|X_N| 1{|X_N| >= beta}) per N, and the same for X."""
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not results:
        raise DomainError("cannot diagnose an empty result set")
    counts = sorted(results[0].x_manybody)
    per_n = {}
    for n in counts:
        xs = np.array([abs(r.x_manybody[n]) for r in results])
        per_n[n] = float(np.mean(np.where(xs >= beta, xs, 0.0)))
    xh = np.array([abs(r.x_hartree) for r in results])
    hartree_tail = float(np.mean(np.where(xh >= beta, xh, 0.0)))
    return per_n, hartree_tail
