"""Command-line front end: config handling, dispatch, and data export.

Every command resolves its parameters from (in increasing precedence)
built-in defaults, an optional JSON config file, and explicit flags, then
writes one or more CSV tables plus a JSON metadata sidecar into the
output directory.  All files are written atomically and embed the fully
resolved parameter set, so outputs with equal embedded parameters and
seeds are identical; the sidecar timestamp is the only field that varies
between reruns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._io import write_csv, write_json
from .brme import brme_steady_state, build_liouvillian
from .defaults import DARK_THRESHOLD, DEFAULTS, FIT_MIN_CELLS
from .environment import EnvironmentParams
from .experiments import DisorderEnsembleSpec, SweepSpec, build_system, \
    disorder_ensemble, length_sweep, regime_grid
from .hamiltonian import HamiltonianParams
from .pme import solve_steady_state
from .spectral import brightness, classify_bright_dark, \
    eigenstructure_tables, transition_matrix

COMMANDS = ("eigen", "steady", "length-sweep", "jb-sweep", "disorder",
            "regime-grid", "brme-check", "eigeninj-sweep")


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI command."""

    command: str = ""
    out: str = "."
    jobs: int = field(default_factory=lambda: os.cpu_count() or 1)
    seed: int = 0
    geometry: str = "mono"
    geometries: list[str] = field(default_factory=lambda: ["mono"])
    n_cells: int = 20
    n_min: int = 2
    n_max: int = 40
    jb: float = DEFAULTS["jb"]
    jb_values: list[float] = field(default_factory=lambda: [0.1, 1.0, 10.0])
    delta_e: float = DEFAULTS["delta_e"]
    e0: float = DEFAULTS["e0"]
    eg: float = DEFAULTS["eg"]
    gamma_rad: float = DEFAULTS["gamma_rad"]
    gamma_nr: float = DEFAULTS["gamma_nr"]
    gamma_phonon: float = DEFAULTS["gamma_phonon"]
    gamma_inj: float = DEFAULTS["gamma_inj"]
    gamma_ext: float = DEFAULTS["gamma_ext"]
    temperature: float = DEFAULTS["temperature"]
    bath_width: float = DEFAULTS["bath_width"]
    bath_peak: float | None = None
    dipoles: str = "none"
    injection_mode: str = "site"
    method: str = "pme"
    sigma: float = 0.9
    n_realizations: int = 100
    dark_threshold: float = DARK_THRESHOLD
    fit_min_cells: int = FIT_MIN_CELLS
    brme_max_cells: int = 20
    keep_raw: bool = True

    def ham_params(self) -> HamiltonianParams:
        return HamiltonianParams(delta_e=self.delta_e, e0=self.e0,
                                 eg=self.eg, jb=self.jb,
                                 dipole_mode=self.dipoles != "none")

    def env_params(self) -> EnvironmentParams:
        return EnvironmentParams(
            gamma_rad=self.gamma_rad, gamma_nr=self.gamma_nr,
            gamma_phonon=self.gamma_phonon, gamma_inj=self.gamma_inj,
            gamma_ext=self.gamma_ext, temperature=self.temperature,
            bath_width=self.bath_width, bath_peak=self.bath_peak)

    def dipole_scheme(self) -> str | None:
        return None if self.dipoles == "none" else self.dipoles

    def sweep_spec(self, n_cells_values=None, jb_values=None,
                   method=None) -> SweepSpec:
        return SweepSpec(
            geometries=tuple(self.geometries),
            n_cells_values=tuple(n_cells_values if n_cells_values is not None
                                 else range(self.n_min, self.n_max + 1)),
            jb_values=tuple(jb_values if jb_values is not None
                            else self.jb_values),
            ham=self.ham_params(),
            env=self.env_params(),
            dipole_scheme=self.dipole_scheme(),
            injection_mode=self.injection_mode,
            disorder=DisorderEnsembleSpec(sigma=self.sigma,
                                          n_realizations=self.n_realizations,
                                          base_seed=self.seed),
            method=method if method is not None else self.method,
            fit_min_cells=self.fit_min_cells,
            brme_max_cells=self.brme_max_cells,
            dark_threshold=self.dark_threshold,
            keep_raw=self.keep_raw,
            jobs=self.jobs,
        )

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command", "out"}


def load_config_file(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonchain",
        description="Steady-state exciton transport through chains of "
                    "multi-site unit cells")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "eigen": "export the eigenstructure (energies, brightness, "
                 "amplitudes) of one system",
        "steady": "solve one steady state and write the report",
        "length-sweep": "current versus chain length with exponential fits",
        "jb-sweep": "current versus intra-cell coupling at fixed length",
        "disorder": "current distributions over seeded disorder ensembles",
        "regime-grid": "currents over loss-rate regimes and dipole "
                       "alignment",
        "brme-check": "compare the population and density-matrix solvers",
        "eigeninj-sweep": "length sweep with eigenbasis injection and "
                          "extraction",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (flags override it)")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: current)")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel workers for grids and ensembles")
        p.add_argument("--seed", type=int, default=None,
                       help="base seed for disorder ensembles")
        p.add_argument("--geometry", default=None,
                       help="cell kind: mono, dimer, trimer, prism, cuboid")
        p.add_argument("--geometries", type=_str_list, default=None,
                       metavar="A,B,...", help="cell kinds for sweep grids")
        p.add_argument("--n-cells", type=int, default=None,
                       help="chain length for single-point commands")
        p.add_argument("--n-min", type=int, default=None,
                       help="smallest chain length in sweeps")
        p.add_argument("--n-max", type=int, default=None,
                       help="largest chain length in sweeps")
        p.add_argument("--jb", type=float, default=None,
                       help="intra-cell coupling for single-point commands")
        p.add_argument("--jb-values", type=_float_list, default=None,
                       metavar="X,Y,...", help="couplings for sweep grids")
        for opt in ("delta-e", "e0", "eg", "gamma-rad", "gamma-nr",
                    "gamma-phonon", "gamma-inj", "gamma-ext", "temperature",
                    "bath-width", "bath-peak", "sigma", "dark-threshold"):
            p.add_argument(f"--{opt}", type=float, default=None)
        p.add_argument("--dipoles", choices=["none", "transport"],
                       default=None)
        p.add_argument("--injection-mode", choices=["site", "eigen"],
                       default=None)
        p.add_argument("--method", choices=["pme", "brme", "both"],
                       default=None)
        p.add_argument("--n-realizations", type=int, default=None)
        p.add_argument("--fit-min-cells", type=int, default=None)
        p.add_argument("--brme-max-cells", type=int, default=None)
        p.add_argument("--keep-raw", dest="keep_raw", action="store_true",
                       default=None)
        p.add_argument("--no-keep-raw", dest="keep_raw",
                       action="store_false", default=None)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.config:
        for key, value in load_config_file(args.config).items():
            setattr(config, key, value)
    for f in fields(RunConfig):
        if f.name in ("command",):
            continue
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    if config.out is None:
        config.out = "."
    return config


def _metadata(config: RunConfig, extra: dict | None = None) -> dict:
    meta = {
        "tool": "excitonchain",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "parameters": config.to_json_dict(),
    }
    if extra:
        meta.update(extra)
    return meta


def _cmd_eigen(config: RunConfig, out: Path) -> None:
    _, _, es, channels = build_system(
        config.geometry, config.n_cells, config.jb, config.ham_params(),
        config.env_params(), dipole_scheme=config.dipole_scheme(),
        injection_mode=config.injection_mode)
    brightness(es, channels)
    census = classify_bright_dark(es, config.dark_threshold)
    states, amplitudes = eigenstructure_tables(es)
    write_csv(out / "eigen_states.csv",
              ["state_index", "energy", "brightness"], states)
    write_csv(out / "eigen_amplitudes.csv",
              ["state_index", "energy", "brightness", "site_index", "cell",
               "slot", "amplitude"], amplitudes)
    write_json(out / "eigen_meta.json", _metadata(config, {
        "n_bright": census.n_bright,
        "n_dark": census.n_dark,
        "band_gap": census.band_gap,
        "band_gap_detrended": census.band_gap_detrended,
        "dark_threshold_absolute": census.threshold,
        "channels": [ch.describe() for ch in channels],
    }))


def _cmd_steady(config: RunConfig, out: Path) -> None:
    _, _, es, channels = build_system(
        config.geometry, config.n_cells, config.jb, config.ham_params(),
        config.env_params(), dipole_scheme=config.dipole_scheme(),
        injection_mode=config.injection_mode)
    if config.method == "brme":
        report = brme_steady_state(build_liouvillian(es, channels))
    else:
        report = solve_steady_state(transition_matrix(es, channels))
    payload = report.to_json_dict()
    payload["parameters"] = config.to_json_dict()
    payload["tool_version"] = __version__
    payload["channels"] = [ch.describe() for ch in channels]
    write_json(out / "steady_state.json", payload)


def _cmd_length_sweep(config: RunConfig, out: Path, *,
                      eigen_injection: bool = False) -> None:
    spec = config.sweep_spec()
    if eigen_injection:
        spec = replace(spec, injection_mode="eigen")
    rows, fits = length_sweep(spec)
    stem = "eigeninj_sweep" if eigen_injection else "length_sweep"
    write_csv(out / f"{stem}.csv",
              ["run_id", "geometry", "jb", "n_cells", "method", "current",
               "ground_population", "residual", "flux_injection",
               "flux_extraction", "flux_radiative", "flux_nonradiative"],
              rows)
    write_csv(out / f"{stem}_fits.csv",
              ["geometry", "jb", "method", "alpha", "beta", "fit_residual",
               "n_min", "n_max", "n_points"], fits)
    write_json(out / f"{stem}_meta.json",
               _metadata(config, {"sweep": spec.to_json_dict()}))


def _cmd_jb_sweep(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec(n_cells_values=[config.n_cells])
    rows, _ = length_sweep(spec)
    write_csv(out / "jb_sweep.csv",
              ["run_id", "geometry", "jb", "n_cells", "method", "current",
               "ground_population", "residual", "flux_injection",
               "flux_extraction", "flux_radiative", "flux_nonradiative"],
              rows)
    write_json(out / "jb_sweep_meta.json",
               _metadata(config, {"sweep": spec.to_json_dict()}))


def _cmd_disorder(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec(n_cells_values=[config.n_cells])
    stats, raw = disorder_ensemble(spec)
    write_csv(out / "disorder_stats.csv",
              ["geometry", "jb", "sigma", "n_realizations", "n_failed",
               "clean_current", "median", "q1", "q3", "min", "max"], stats)
    if spec.keep_raw:
        write_csv(out / "disorder_raw.csv",
                  ["geometry", "jb", "realization", "current", "error"], raw)
    write_json(out / "disorder_meta.json",
               _metadata(config, {"sweep": spec.to_json_dict()}))


def _cmd_regime_grid(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec(n_cells_values=[config.n_cells])
    rows = regime_grid(spec)
    write_csv(out / "regime_grid.csv",
              ["geometry", "jb", "gamma_nr", "dipoles", "realization",
               "current"], rows)
    write_json(out / "regime_grid_meta.json",
               _metadata(config, {"sweep": spec.to_json_dict()}))


def _cmd_brme_check(config: RunConfig, out: Path) -> None:
    ns = [n for n in (2, 5, 10, 20) if config.n_min <= n <= config.n_max]
    spec = config.sweep_spec(n_cells_values=ns or [config.n_cells],
                             method="both")
    rows, _ = length_sweep(spec)
    merged: dict[tuple, dict] = {}
    for row in rows:
        key = (row["geometry"], row["jb"], row["n_cells"])
        merged.setdefault(key, {"geometry": key[0], "jb": key[1],
                                "n_cells": key[2]})
        merged[key][f"current_{row['method']}"] = row["current"]
    table = []
    for key in sorted(merged, key=lambda k: (k[0], k[1], k[2])):
        entry = merged[key]
        if "current_pme" in entry and "current_brme" in entry:
            base = entry["current_pme"]
            entry["rel_difference"] = (
                abs(entry["current_brme"] - base) / base if base else None)
        table.append(entry)
    write_csv(out / "brme_check.csv",
              ["geometry", "jb", "n_cells", "current_pme", "current_brme",
               "rel_difference"], table)
    write_json(out / "brme_check_meta.json",
               _metadata(config, {"sweep": spec.to_json_dict()}))


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit status."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    handlers = {
        "eigen": _cmd_eigen,
        "steady": _cmd_steady,
        "length-sweep": _cmd_length_sweep,
        "jb-sweep": _cmd_jb_sweep,
        "disorder": _cmd_disorder,
        "regime-grid": _cmd_regime_grid,
        "brme-check": _cmd_brme_check,
        "eigeninj-sweep": lambda c, o: _cmd_length_sweep(
            c, o, eigen_injection=True),
    }
    handlers[config.command](config, out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return run(config)
    except Exception as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": getattr(args, "command", None),
        }
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
