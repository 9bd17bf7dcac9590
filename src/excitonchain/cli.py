"""Command-line front end: config handling, dispatch, and data export.

Every command resolves its parameters from (in increasing precedence)
built-in defaults, an optional JSON config file, and explicit flags, then
writes one or more CSV tables plus a JSON metadata sidecar into the
output directory.  A command takes only the settings it reads
(``COMMANDS``).  All files are written atomically and embed the resolved
settings read, so outputs with equal embedded parameters and seeds are
identical; the sidecar timestamp is the only field that varies between
reruns.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from ._io import write_csv, write_json
from .defaults import DARK_THRESHOLD, DEFAULTS, FIT_MIN_CELLS
from .environment import EnvironmentParams
from .experiments import SweepSpec, _solve_system, build_system, \
    disorder_ensemble, length_sweep, regime_grid
from .hamiltonian import HamiltonianParams
from .pme import site_populations
from .spectral import _check_dark_threshold, brightness, \
    classify_bright_dark, eigenstructure_tables


def _setting(default=None, *, factory=None, **metadata):
    """A RunConfig field whose metadata holds its flag's help and choices."""
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI command.

    Every field but ``command`` is a flag (``n_cells`` is ``--n-cells``)
    and, but ``out``, a config key of the commands that read it.
    """

    command: str = ""
    out: str = _setting(".", metavar="DIR",
                        help="output directory (default: current)")
    jobs: int = _setting(1, help="parallel workers for grids and ensembles")
    seed: int = _setting(0, help="base seed for disorder ensembles")
    geometry: str = _setting(
        "mono", help="cell kind: mono, dimer, trimer, prism, cuboid")
    geometries: list[str] = _setting(factory=lambda: ["mono"],
                                     metavar="A,B,...",
                                     help="cell kinds for sweep grids")
    n_cells: int = _setting(20, help="chain length")
    n_min: int = _setting(2, help="smallest chain length in sweeps")
    n_max: int = _setting(40, help="largest chain length in sweeps")
    jb: float = _setting(DEFAULTS["jb"], help="intra-cell coupling")
    jb_values: list[float] = _setting(factory=lambda: [0.1, 1.0, 10.0],
                                      metavar="X,Y,...",
                                      help="couplings for sweep grids")
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
    dipoles: str = _setting("none", choices=["none", "transport"])
    injection_mode: str = _setting("site", choices=["site", "eigen"])
    method: str = _setting("pme", choices=["pme", "brme", "both"])
    sigma: float = 0.9
    n_realizations: int = 100
    dark_threshold: float = DARK_THRESHOLD
    fit_min_cells: int = FIT_MIN_CELLS
    brme_max_cells: int = 20
    keep_raw: bool = True

    def ham_params(self) -> HamiltonianParams:
        return HamiltonianParams(delta_e=self.delta_e, e0=self.e0,
                                 eg=self.eg)

    def env_params(self) -> EnvironmentParams:
        return EnvironmentParams(
            gamma_rad=self.gamma_rad, gamma_nr=self.gamma_nr,
            gamma_phonon=self.gamma_phonon, gamma_inj=self.gamma_inj,
            gamma_ext=self.gamma_ext, temperature=self.temperature,
            bath_width=self.bath_width, bath_peak=self.bath_peak)

    def dipole_scheme(self) -> str | None:
        return None if self.dipoles == "none" else self.dipoles

    def sweep_spec(self, n_cells_values=None, method=None) -> SweepSpec:
        return SweepSpec(
            geometries=tuple(self.geometries),
            n_cells_values=tuple(n_cells_values if n_cells_values is not None
                                 else range(self.n_min, self.n_max + 1)),
            jb_values=tuple(self.jb_values),
            ham=self.ham_params(),
            env=self.env_params(),
            dipole_scheme=self.dipole_scheme(),
            injection_mode=self.injection_mode,
            sigma=self.sigma,
            n_realizations=self.n_realizations,
            seed=self.seed,
            method=method if method is not None else self.method,
            fit_min_cells=self.fit_min_cells,
            brme_max_cells=self.brme_max_cells,
            dark_threshold=self.dark_threshold,
            jobs=self.jobs,
        )


def _value_parser(hint):
    """The parser of one flag value: comma lists for list fields, and the
    one non-None type of an optional field."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        def comma_list(text: str) -> list:
            return [args[0](part.strip())
                    for part in text.split(",") if part.strip()]
        return comma_list
    return next((a for a in args if a is not type(None)), hint)


def _config_value(key: str, hint, value):
    """A config-file value checked against its field annotation ``hint``.

    A string is parsed like the matching flag's value; any other JSON value
    must already have the annotated type, and a bool is not a number.
    """
    if typing.get_origin(hint) is list and isinstance(value, list):
        return [_config_value(key, typing.get_args(hint)[0], item)
                for item in value]
    if isinstance(value, str) and hint is not bool:
        try:
            return _value_parser(hint)(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    kinds = typing.get_args(hint) or (hint,)
    if value is None:
        ok = type(None) in kinds
    elif isinstance(value, bool):
        ok = bool in kinds
    elif isinstance(value, (int, float)):
        ok = float in kinds or (int in kinds and isinstance(value, int))
    else:
        ok = False
    if not ok:
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise ValueError(f"config key {key!r} must be {name}, not {value!r}")
    return float(value) if float in kinds and value is not None else value


def load_config_file(path: str, command: str) -> dict:
    """Settings of ``command`` from a JSON config file, each read by it
    and checked against its field (see :func:`_config_value`)."""
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    settable = {f.name: f for f in fields(RunConfig)
                if f.name in COMMANDS[command][2] and f.name != "out"}
    unknown = set(data) - set(settable)
    if unknown:
        raise ValueError(f"{command} does not read {sorted(unknown)}")
    hints = typing.get_type_hints(RunConfig)
    settings = {}
    for key, value in data.items():
        value = _config_value(key, hints[key], value)
        choices = settable[key].metadata.get("choices")
        if choices and value not in choices:
            raise ValueError(f"config key {key!r} must be one of {choices}")
        settings[key] = value
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excitonchain",
        description="Steady-state exciton transport through chains of "
                    "multi-site unit cells")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    hints = typing.get_type_hints(RunConfig)
    for name, (_, description, reads) in COMMANDS.items():
        # no abbreviations: --jb must not pass for --jb-values
        p = sub.add_parser(name, help=description, allow_abbrev=False)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config file (flags override it)")
        for f in fields(RunConfig):
            if f.name not in reads:
                continue
            kind = ({"action": argparse.BooleanOptionalAction}
                    if hints[f.name] is bool
                    else {"type": _value_parser(hints[f.name])})
            p.add_argument(f"--{f.name.replace('_', '-')}", default=None,
                           **kind, **f.metadata)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    settings = load_config_file(args.config, args.command) if args.config \
        else {}
    settings.update((k, v) for k, v in vars(args).items()
                    if k != "config" and v is not None)
    return replace(RunConfig(), **settings)


def _parameters(config: RunConfig) -> dict:
    """The command and the settings it read, for its output files."""
    reads = COMMANDS[config.command][2] | {"command"}
    return {k: v for k, v in asdict(config).items() if k in reads}


def _versions() -> dict:
    """The python version, and those of numpy and scipy where the run
    loaded them: numpy always, scipy only for pinned clean rows."""
    return {"python": platform.python_version(),
            **{name: sys.modules[name].__version__
               for name in ("numpy", "scipy") if name in sys.modules}}


def _write_meta(out: Path, stem: str, config: RunConfig, **extra) -> None:
    write_json(out / f"{stem}_meta.json", {
        "tool": "excitonchain",
        "version": __version__,
        **_versions(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "parameters": _parameters(config),
        **extra,
    })


def _system(config: RunConfig):
    return build_system(
        config.geometry, config.n_cells, config.jb, config.ham_params(),
        config.env_params(), dipole_scheme=config.dipole_scheme(),
        injection_mode=config.injection_mode)


def _cmd_eigen(config: RunConfig, out: Path) -> None:
    _check_dark_threshold(config.dark_threshold)
    _, _, es, channels = _system(config)
    b = brightness(es, channels)
    census = classify_bright_dark(es, b, config.dark_threshold)
    states, amplitudes = eigenstructure_tables(es, b)
    write_csv(out / "eigen_states.csv",
              ["state_index", "energy", "brightness"], states)
    write_csv(out / "eigen_amplitudes.csv",
              ["state_index", "energy", "brightness", "site_index", "cell",
               "slot", "amplitude"], amplitudes)
    _write_meta(out, "eigen", config,
                n_bright=census.n_bright,
                n_dark=census.n_dark,
                band_gap=census.band_gap,
                band_gap_detrended=census.band_gap_detrended,
                dark_threshold_absolute=census.threshold,
                channels=[ch.describe() for ch in channels])


def _cmd_steady(config: RunConfig, out: Path) -> None:
    (_, _, es, channels), report = _solve_system(
        config.method, lambda: _system(config))
    payload = report.to_json_dict()
    payload["site_populations"] = site_populations(report, es).tolist()
    payload["parameters"] = _parameters(config)
    payload["tool_version"] = __version__
    payload.update(_versions())
    payload["channels"] = [ch.describe() for ch in channels]
    write_json(out / "steady_state.json", payload)


def _cmd_length_sweep(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec()
    rows, fits = length_sweep(spec)
    write_csv(out / "length_sweep.csv",
              ["run_id", "geometry", "jb", "n_cells", "method", "current",
               "ground_population", "residual", "flux_injection",
               "flux_extraction", "flux_radiative", "flux_nonradiative"],
              rows)
    write_csv(out / "length_sweep_fits.csv",
              ["geometry", "jb", "method", "alpha", "beta", "fit_residual",
               "n_min", "n_max", "n_points"], fits)
    _write_meta(out, "length_sweep", config)


def _cmd_disorder(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec(n_cells_values=[config.n_cells], method="pme")
    stats, raw = disorder_ensemble(spec)
    write_csv(out / "disorder_stats.csv",
              ["geometry", "jb", "sigma", "n_realizations", "n_failed",
               "clean_current", "median", "q1", "q3", "min", "max"], stats)
    if config.keep_raw:
        write_csv(out / "disorder_raw.csv",
                  ["geometry", "jb", "realization", "current", "error",
                   "n_dark"], raw)
    _write_meta(out, "disorder", config)


def _cmd_regime_grid(config: RunConfig, out: Path) -> None:
    spec = config.sweep_spec(n_cells_values=[config.n_cells], method="pme")
    rows = regime_grid(spec)
    write_csv(out / "regime_grid.csv",
              ["geometry", "jb", "gamma_nr", "dipoles", "realization",
               "current", "error"], rows)
    _write_meta(out, "regime_grid", config)


# the BRME report's solver diagnostics that brme_check.csv carries per row
_BRME_DIAGNOSTICS = ("krylov_iterations", "coherence_fraction",
                     "population_share")


def _cmd_brme_check(config: RunConfig, out: Path) -> None:
    ns = [n for n in (2, 5, 10, 20) if config.n_min <= n <= config.n_max
          and n <= config.brme_max_cells]
    if not ns:
        raise ValueError(
            f"brme-check solves N = 2, 5, 10, 20; none lies in "
            f"[{config.n_min}, {config.n_max}] and at or below "
            f"brme_max_cells = {config.brme_max_cells}")
    spec = config.sweep_spec(n_cells_values=ns, method="both")
    rows, _ = length_sweep(spec)
    merged: dict[tuple, dict] = {}
    for row in rows:
        key = (row["geometry"], row["jb"], row["n_cells"])
        entry = merged.setdefault(key, {"geometry": key[0], "jb": key[1],
                                        "n_cells": key[2]})
        entry[f"current_{row['method']}"] = row["current"]
        if row["method"] == "brme":
            entry.update({k: row[k] for k in _BRME_DIAGNOSTICS})
    table = [merged[key] for key in sorted(merged)]
    for entry in table:
        base = entry["current_pme"]
        entry["rel_difference"] = (
            abs(entry["current_brme"] - base) / base if base else None)
    write_csv(out / "brme_check.csv",
              ["geometry", "jb", "n_cells", "current_pme", "current_brme",
               "rel_difference", *_BRME_DIAGNOSTICS], table)
    _write_meta(out, "brme_check", config)


# command name -> (handler, help text, the RunConfig fields it reads: its
# flags, config keys and sidecar parameters).  Every command reads the
# output directory and the energy and environment scales but gamma_nr,
# which regime-grid sets itself.
COMMANDS = {name: (handler, description, frozenset(
    "out delta_e e0 eg gamma_rad gamma_phonon gamma_inj gamma_ext "
    f"temperature bath_width bath_peak injection_mode {reads}".split()))
    for name, handler, description, reads in [
        ("eigen", _cmd_eigen, "export the eigenstructure (energies, "
         "brightness, amplitudes) of one system",
         "geometry n_cells jb gamma_nr dipoles dark_threshold"),
        ("steady", _cmd_steady, "solve one steady state and write the report",
         "geometry n_cells jb gamma_nr dipoles method"),
        ("length-sweep", _cmd_length_sweep,
         "current versus chain length with exponential fits",
         "jobs geometries n_min n_max jb_values gamma_nr dipoles method "
         "fit_min_cells brme_max_cells"),
        ("disorder", _cmd_disorder,
         "current distributions over seeded disorder ensembles",
         "jobs seed geometries n_cells jb_values gamma_nr dipoles sigma "
         "n_realizations dark_threshold keep_raw"),
        ("regime-grid", _cmd_regime_grid,
         "currents over loss-rate regimes and dipole alignment",
         "jobs seed geometries n_cells jb_values sigma n_realizations"),
        ("brme-check", _cmd_brme_check,
         "compare the population and density-matrix solvers",
         "jobs geometries n_min n_max jb_values gamma_nr dipoles "
         "brme_max_cells")]}


def run(config: RunConfig) -> int:
    """Dispatch a resolved config; returns the process exit status.

    The output directory is made by the first file written to it, so a
    command that fails first leaves nothing behind.
    """
    COMMANDS[config.command][0](config, Path(config.out))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args, unread = parser.parse_known_args(argv)
    if unread:
        parser.error(f"{args.command} does not read {' '.join(unread)}")
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
