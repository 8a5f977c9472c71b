"""Experiment configuration: flat `key = value` files with documented defaults.

Unknown keys are rejected; missing keys fall back to the defaults below. The
fully resolved configuration is echoed next to the results so a run can be
reproduced from its output directory alone. Numbers must be finite; the
ranges of t_final, dt and the particle counts are ExperimentPlan's to check,
and that of beta is ensemble.check_beta's, after `beta = auto` resolves here
to half the plan's observable norm.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, DomainError
from .ensemble import ExperimentPlan, check_beta
from .grid import LatticeGrid, WaveFunction, build_grid, gaussian_packet, \
    plane_wave, uniform_state
from .observables import PObservable, condensate_projector, site_multiplier
from .random_field import FieldSpec, check_mode_count, parse_finite

_DEFAULTS = {
    "dimension": "1",
    "sites": "8",
    "box_length": "8.0",
    "t_final": "0.5",
    "dt": "",                      # empty -> t_final / 512
    "particle_counts": "2,4,6",
    "samples": "64",
    "base_seed": "20240817",
    "field.base": "zero",
    "field.gaussian_mean": "0.0",
    "field.sigmas": "",
    "observable.kind": "condensate_projector",
    "observable.p": "1",
    "observable.amplitude": "1.0",
    "observable.mode": "1",
    "init.kind": "gaussian_packet",
    "init.center": "",             # empty -> box_length / 2
    "init.width": "",              # empty -> box_length / 8
    "init.mode": "1",
    "output_dir": "./out",
    "beta": "auto",                # auto -> half the observable norm
}


@dataclass
class RunOptions:
    output_dir: str
    beta: float
    resolved: dict[str, str]


def _parse_kv_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _get_int(cfg: dict, key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {cfg[key]!r}") from None


def _get_float(cfg: dict, key: str) -> float:
    return parse_finite(cfg[key], key)


def _float_list(cfg: dict, key: str) -> tuple[float, ...]:
    raw = cfg[key].strip()
    return tuple(parse_finite(tok, key) for tok in raw.split(",")) if raw else ()


def _int_list(cfg: dict, key: str) -> tuple[int, ...]:
    raw = cfg[key].strip()
    if not raw:
        return ()
    try:
        return tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma list of integers, "
                          f"got {cfg[key]!r}") from None


def _build_initial_state(cfg: dict, grid: LatticeGrid) -> WaveFunction:
    kind = cfg["init.kind"]
    if kind == "gaussian_packet":
        center = _get_float(cfg, "init.center") if cfg["init.center"] else None
        width = _get_float(cfg, "init.width") if cfg["init.width"] else None
        return gaussian_packet(grid, center=center, width=width)
    if kind == "uniform":
        return uniform_state(grid)
    if kind == "plane_wave":
        return plane_wave(grid, mode=_get_int(cfg, "init.mode"))
    raise ConfigError(f"key 'init.kind': unknown initial state {kind!r}")


def _build_observable(cfg: dict, grid: LatticeGrid,
                      phi: WaveFunction) -> PObservable:
    kind = cfg["observable.kind"]
    p = _get_int(cfg, "observable.p")
    if p < 1:
        raise ConfigError("key 'observable.p': must be a positive integer")
    if kind == "condensate_projector":
        return condensate_projector(phi, p=p)
    if kind == "site_multiplier":
        if p != 1:
            raise ConfigError("key 'observable.p': site_multiplier is one-particle")
        return site_multiplier(grid, amplitude=_get_float(cfg, "observable.amplitude"),
                               mode=_get_int(cfg, "observable.mode"))
    raise ConfigError(f"key 'observable.kind': unknown observable {kind!r}")


def parse_config(path: str | Path, overrides: dict[str, str] | None = None
                 ) -> tuple[ExperimentPlan, RunOptions]:
    """Read, validate and resolve a config file into a runnable plan.

    overrides (key -> value strings, e.g. from command-line flags) replace the
    file's values before resolution, so they pass the same checks.
    """
    cfg = dict(_DEFAULTS)
    cfg.update(_parse_kv_file(path))
    for key, value in (overrides or {}).items():
        if key not in _DEFAULTS:
            raise ConfigError(f"override: unknown key {key!r}")
        cfg[key] = value

    grid = build_grid(_get_int(cfg, "dimension"), _get_int(cfg, "sites"),
                      _get_float(cfg, "box_length"))

    t_final = _get_float(cfg, "t_final")
    dt = _get_float(cfg, "dt") if cfg["dt"] else (t_final / 512 if t_final > 0 else 1.0)

    field_spec = FieldSpec(
        base=cfg["field.base"],
        gaussian_mean=_get_float(cfg, "field.gaussian_mean"),
        mode_stddevs=_float_list(cfg, "field.sigmas"),
    )
    check_mode_count(field_spec, grid)

    phi = _build_initial_state(cfg, grid)
    observable = _build_observable(cfg, grid, phi)

    base_seed = _get_int(cfg, "base_seed")
    if not (0 <= base_seed < 2 ** 64):
        raise ConfigError("key 'base_seed': must fit in 64 unsigned bits")

    try:
        plan = ExperimentPlan(
            grid=grid, field_spec=field_spec, initial_state=phi,
            observable=observable, t_final=t_final, dt=dt,
            particle_counts=_int_list(cfg, "particle_counts"),
            samples=_get_int(cfg, "samples"), base_seed=base_seed,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    auto = cfg["beta"] == "auto"
    beta = plan.observable_norm / 2 if auto else _get_float(cfg, "beta")
    try:
        check_beta(beta)
    except DomainError as exc:
        message = str(exc)
        if auto:
            message += f" (auto: half the observable norm {plan.observable_norm!r})"
        raise ConfigError(message) from exc
    resolved = dict(cfg)
    resolved["dt"] = repr(dt)
    options = RunOptions(output_dir=cfg["output_dir"], beta=beta,
                         resolved=resolved)
    return plan, options


def format_resolved(resolved: dict[str, str]) -> str:
    """`key = value` lines in the dict's order (_DEFAULTS order from parse_config)."""
    return "".join(f"{k} = {v}\n" for k, v in resolved.items())
