"""Monte Carlo over field realizations.

Each sample draws one interaction realization and runs the Hartree flow and
the exact N-body dynamics for every N in the sweep against that same field
(common random numbers), so the pathwise gap Y_N = |X - X_N| is estimated
with low variance. A run is one sequential pipeline: build each N's sector,
run one batched Hartree flow over every field, then the many-body work of
each sample in order. Each field is seeded from (base_seed, sample_index), so
a sample's values do not depend on which other samples run with it.
The plan checks its largest sector against the dimension cap and derives the
observable norm and the Hartree time grid once, at construction, and
_run_samples checks every |X| and |X_N| against that norm.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, DomainError, MFLabError
from .grid import LatticeGrid, WaveFunction
from .hartree import HartreeRunParams, evolve_hartree_batch, hartree_expectation
from .manybody import (assemble_hamiltonian, build_fock_basis, check_fock_dimension,
                       evolve_manybody, manybody_expectation, product_state_lift)
from .observables import PObservable, operator_norm
from .random_field import FieldSpec, RandomField, mix_seed, sample_field


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment, whose largest Fock sector is within the dimension cap;
    observable_norm and hartree_params are derived at construction."""

    grid: LatticeGrid
    field_spec: FieldSpec
    initial_state: WaveFunction
    observable: PObservable
    t_final: float
    dt: float
    particle_counts: tuple[int, ...]
    samples: int
    base_seed: int
    observable_norm: float = field(init=False)
    hartree_params: HartreeRunParams = field(init=False)

    def __post_init__(self):
        counts = tuple(int(n) for n in self.particle_counts)
        if not counts:
            raise DomainError("particle_counts must be nonempty")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise DomainError("particle_counts must be strictly ascending")
        if counts[0] < 1:
            raise DomainError("particle counts must be positive")
        if self.observable.p > counts[0]:
            raise DomainError(f"observable.p = {self.observable.p} exceeds the "
                              f"smallest particle count {counts[0]}")
        check_fock_dimension(counts[-1], self.grid)
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        object.__setattr__(self, "particle_counts", counts)
        object.__setattr__(self, "hartree_params", HartreeRunParams(self.t_final, self.dt))
        object.__setattr__(self, "observable_norm",
                           operator_norm(self.observable, self.grid))


@dataclass
class SampleResult:
    sample_index: int
    seed: int
    x_hartree: float
    x_manybody: dict[int, float]

    @property
    def y(self) -> dict[int, float]:
        """The gap Y_N = |X - X_N| per N."""
        return {n: abs(self.x_hartree - x) for n, x in self.x_manybody.items()}


@dataclass(frozen=True)
class SummaryRow:
    n: int
    mean_x_manybody: float
    mean_x_hartree: float
    mean_y: float
    ci95_y: float
    samples: int


def _in_sample(exc: MFLabError, plan: ExperimentPlan, i: int) -> MFLabError:
    """The same error, prefixed with the sample it happened in."""
    return type(exc)(f"sample {i} (seed {mix_seed(plan.base_seed, i)}): {exc}")


def _hartree_flows(plan: ExperimentPlan, indices: Sequence[int]
                   ) -> list[tuple[RandomField, WaveFunction]]:
    """Each sample's field and psi_t, from one batched Hartree flow."""
    fields = []
    for i in indices:
        try:
            fields.append(sample_field(plan.field_spec, mix_seed(plan.base_seed, i), plan.grid))
        except MFLabError as exc:
            raise _in_sample(exc, plan, i) from exc
    try:
        states = evolve_hartree_batch(plan.initial_state, fields, plan.hartree_params)
    except MFLabError as exc:
        raise _in_sample(exc, plan, indices[getattr(exc, "row", 0)]) from exc
    return list(zip(fields, states))


def _bounded(x: float, name: str, plan: ExperimentPlan) -> float:
    """x, once |x| <= the observable norm + 1e-12; NaN fails too."""
    if not (abs(x) <= plan.observable_norm + 1e-12):
        raise ConsistencyError(f"|{name}| = {abs(x)!r} exceeds the observable "
                               f"norm {plan.observable_norm!r}")
    return x


def _run_samples(plan: ExperimentPlan, indices: Sequence[int]) -> list[SampleResult]:
    """The samples at indices, in that order, against the same plan.

    Each N's sector and lifted initial state are built first, so the work
    done once per plan precedes the first field; then the Hartree flow runs
    once for all the fields, and each sample does its many-body work against
    its own field.
    """
    sectors = []
    for n in plan.particle_counts:
        basis = build_fock_basis(n, plan.grid, max_rdm_order=plan.observable.p)
        sectors.append((basis, product_state_lift(plan.initial_state, basis)))
    results = []
    for i, (v, psi_t) in zip(indices, _hartree_flows(plan, indices)):
        try:
            x_h = _bounded(hartree_expectation(psi_t, plan.observable), "X", plan)
            x_mb = {}
            for basis, psi0 in sectors:
                psi_n = evolve_manybody(psi0, assemble_hamiltonian(basis, v), plan.t_final)
                x_mb[basis.n_particles] = _bounded(
                    manybody_expectation(psi_n, plan.observable), "X_N", plan)
        except MFLabError as exc:
            raise _in_sample(exc, plan, i) from exc
        results.append(SampleResult(sample_index=i, seed=mix_seed(plan.base_seed, i),
                                    x_hartree=x_h, x_manybody=x_mb))
    return results


def run_sample(plan: ExperimentPlan, sample_index: int) -> SampleResult:
    """One realization: Hartree once, many-body once per N, same field."""
    if not (0 <= sample_index < plan.samples):
        raise DomainError(
            f"sample_index {sample_index} outside 0..{plan.samples - 1}"
        )
    return _run_samples(plan, [sample_index])[0]


def run_ensemble(plan: ExperimentPlan) -> list[SampleResult]:
    """All samples, one after another, ordered by sample_index."""
    return _run_samples(plan, range(plan.samples))


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


def check_beta(beta: float) -> None:
    """Reject a tail threshold that is not positive; NaN fails too."""
    if not (beta > 0):
        raise DomainError(f"beta must be positive, got {beta!r}")


def tail_diagnostic(results: list[SampleResult], beta: float
                    ) -> tuple[dict[int, float], float]:
    """Empirical E(|X_N| 1{|X_N| >= beta}) per N, and the same for X."""
    check_beta(beta)
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
