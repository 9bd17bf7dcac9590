import csv
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from excitonchain import cli
from excitonchain.cli import (COMMANDS, RunConfig, build_parser, main,
                              resolve_config)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run_ok(args):
    assert main(args) == 0


def test_steady_writes_report_with_embedded_parameters(tmp_path):
    run_ok(["steady", "--geometry", "mono", "--n-cells", "20",
            "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "steady_state.json").read_text())
    assert payload["ground_population"] > 0.95
    assert payload["parameters"]["geometry"] == "mono"
    assert payload["parameters"]["n_cells"] == 20
    assert payload["parameters"]["gamma_ext"] == 0.021
    kinds = {ch["kind"] for ch in payload["channels"]}
    assert kinds == {"phonon", "radiative", "nonradiative", "injection",
                     "extraction"}


def test_steady_brme_reports_krylov_diagnostics(tmp_path):
    # prism N=25: dim 76, above the largest brme-check system (61)
    run_ok(["steady", "--geometry", "prism", "--n-cells", "25",
            "--method", "brme", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "steady_state.json").read_text())
    assert payload["method"] == "brme"
    assert payload["krylov_iterations"] > 0
    assert 0 < payload["initial_residual"] < 1e-3
    assert "brme_max_dimension" not in payload["parameters"]


def test_eigen_export_row_counts(tmp_path):
    run_ok(["eigen", "--geometry", "dimer", "--n-cells", "10", "--jb", "1",
            "--out", str(tmp_path)])
    states = read_csv(tmp_path / "eigen_states.csv")
    assert len(states) == 21
    amplitudes = read_csv(tmp_path / "eigen_amplitudes.csv")
    assert len(amplitudes) == 400
    meta = json.loads((tmp_path / "eigen_meta.json").read_text())
    assert meta["parameters"]["jb"] == 1.0
    assert "n_dark" in meta


def test_unknown_flag_fails_without_output(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["steady", "--geometry", "mono", "--frobnicate", "1",
              "--out", str(tmp_path)])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_rejected():
    with pytest.raises(SystemExit) as err:
        main(["transmogrify"])
    assert err.value.code == 2


def test_unknown_config_key_fails_without_output(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"geometry": "mono", "gamma_radd": 1.0}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["steady", "--config", str(config),
                 "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "gamma_radd" in record["message"]
    assert list(out.iterdir()) == []


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"geometry": "dimer", "n_cells": 4,
                                  "jb": 2.0}))
    run_ok(["steady", "--config", str(config), "--jb", "3.0",
            "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "steady_state.json").read_text())
    assert payload["parameters"]["geometry"] == "dimer"
    assert payload["parameters"]["jb"] == 3.0


def flag(name):
    return "--" + name.replace("_", "-")


def test_each_command_takes_exactly_the_settings_it_reads():
    settings = {f.name for f in fields(RunConfig)} - {"command"}
    assert set().union(*(c[2] for c in COMMANDS.values())) == settings
    sub = build_parser()._subparsers._group_actions[0]
    assert set(sub.choices) == set(COMMANDS)
    for name, command in sub.choices.items():
        flags = [opt for action in command._actions
                 for opt in action.option_strings]
        reads = COMMANDS[name][2]
        expected = [flag(f) for f in reads] + ["--config", "-h", "--help"]
        if "keep_raw" in reads:
            expected.append("--no-keep-raw")
        assert sorted(flags) == sorted(expected), name


# the settings each command does not read, 60 (command, flag) pairs
UNREAD = {
    "eigen": "jobs seed geometries n_min n_max jb_values method sigma "
             "n_realizations fit_min_cells brme_max_cells keep_raw",
    "steady": "jobs seed geometries n_min n_max jb_values dark_threshold "
              "sigma n_realizations fit_min_cells brme_max_cells keep_raw",
    "length-sweep": "seed geometry n_cells jb sigma n_realizations "
                    "dark_threshold keep_raw",
    "disorder": "geometry n_min n_max jb method fit_min_cells "
                "brme_max_cells",
    "regime-grid": "geometry n_min n_max jb gamma_nr dipoles method "
                   "dark_threshold fit_min_cells brme_max_cells keep_raw",
    "brme-check": "seed geometry n_cells jb method sigma n_realizations "
                  "dark_threshold fit_min_cells keep_raw",
}
UNREAD_PAIRS = [(command, name) for command, names in UNREAD.items()
                for name in names.split()]
# a value of the right type for each of them, as a flag and as JSON
VALUES = {"jobs": 2, "seed": 3, "geometry": "dimer", "geometries": "dimer",
          "n_cells": 4, "n_min": 2, "n_max": 3, "jb": 5.0, "jb_values": "1",
          "method": "pme", "sigma": 0.9, "n_realizations": 2,
          "fit_min_cells": 2, "brme_max_cells": 5, "dark_threshold": 1e-3,
          "keep_raw": True, "gamma_nr": 0.5, "dipoles": "transport"}


def test_unread_settings_are_every_other_setting():
    settings = {f.name for f in fields(RunConfig)} - {"command"}
    assert len(UNREAD_PAIRS) == 60
    for command, names in UNREAD.items():
        assert set(names.split()) == settings - COMMANDS[command][2]


@pytest.mark.parametrize("command, name", UNREAD_PAIRS)
def test_a_setting_the_command_does_not_read_fails_by_name(
        tmp_path, capsys, command, name):
    out = tmp_path / "out"
    value = VALUES[name]
    args = [flag(name)] if value is True else [flag(name), str(value)]
    with pytest.raises(SystemExit) as err:
        main([command, *args, "--out", str(out)])
    assert err.value.code == 2
    assert f"{command} does not read {flag(name)}" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({name: value}))
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"] == f"{command} does not read ['{name}']"
    assert not out.exists()


SMALL_RUNS = {
    "eigen": ["--geometry", "dimer", "--n-cells", "2"],
    "steady": ["--geometry", "dimer", "--n-cells", "2"],
    "length-sweep": ["--geometries", "dimer", "--jb-values", "1",
                     "--n-min", "2", "--n-max", "3", "--jobs", "1"],
    "disorder": ["--geometries", "dimer", "--jb-values", "1", "--n-cells",
                 "2", "--n-realizations", "2", "--jobs", "1"],
    "regime-grid": ["--geometries", "dimer", "--jb-values", "1",
                    "--n-cells", "2", "--n-realizations", "1", "--jobs", "1"],
    "brme-check": ["--geometries", "mono", "--jb-values", "1", "--n-max",
                   "2", "--jobs", "1"],
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_sidecars_hold_only_the_settings_the_command_read(tmp_path, command):
    run_ok([command, *SMALL_RUNS[command], "--out", str(tmp_path)])
    [sidecar] = [path for path in tmp_path.iterdir()
                 if path.name.endswith("_meta.json")
                 or path.name == "steady_state.json"]
    meta = json.loads(sidecar.read_text())
    assert set(meta["parameters"]) == {"command"} | COMMANDS[command][2]
    assert "sweep" not in meta
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    if "scipy" in meta:  # recorded only when a solve loaded it
        assert meta["scipy"] == sys.modules["scipy"].__version__


def _resolve(argv):
    return resolve_config(build_parser().parse_args(argv))


def test_config_file_of_a_config_resolves_to_it(tmp_path):
    config = RunConfig(command="disorder", seed=5, geometries=["dimer"],
                       jb_values=[0.5, 2.0], bath_peak=0.3, jobs=3,
                       dipoles="transport", keep_raw=False, gamma_nr=0.002)
    reads = COMMANDS["disorder"][2] - {"out"}
    settings = {k: v for k, v in asdict(config).items() if k in reads}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    assert _resolve(["disorder", "--config", str(path)]) == config


def test_config_file_strings_parse_like_flags(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"geometries": "prism", "jb_values": "0.5,2",
                                "n_min": "7", "bath_peak": "0.3"}))
    config = _resolve(["length-sweep", "--config", str(path)])
    assert config.geometries == ["prism"]
    assert config.jb_values == [0.5, 2.0]
    assert config.n_min == 7
    assert config.bath_peak == 0.3
    path.write_text(json.dumps({"geometries": ["prism"], "jb_values": [1]}))
    config = _resolve(["length-sweep", "--config", str(path)])
    assert config.geometries == ["prism"]
    assert config.jb_values == [1]
    path.write_text(json.dumps({"keep_raw": "false"}))
    with pytest.raises(ValueError, match="keep_raw"):
        _resolve(["disorder", "--config", str(path)])


def test_mistyped_config_value_fails_before_any_output(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n_cells": 3.7}))
    out = tmp_path / "out"
    assert main(["steady", "--config", str(config), "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "'n_cells'" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("settings, key", [
    ({"jb": True}, "jb"),
    ({"jb_values": [1.0, False]}, "jb_values"),
    ({"geometries": ["prism", 3]}, "geometries"),
    ({"geometry": 2}, "geometry"),
    ({"n_min": "2.5"}, "n_min"),
    ({"jobs": None}, "jobs"),
    ({"method": "exact"}, "method"),
])
def test_config_values_are_checked_against_their_fields(tmp_path, settings,
                                                        key):
    # checked by the first command that reads the key
    command = next(name for name, c in COMMANDS.items() if key in c[2])
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    with pytest.raises(ValueError, match=f"^config key '{key}'"):
        _resolve([command, "--config", str(path)])


def test_config_numbers_take_their_field_type(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"jb": 3, "bath_peak": None, "n_cells": 7}))
    config = _resolve(["steady", "--config", str(path)])
    assert type(config.jb) is float and config.jb == 3.0
    assert config.bath_peak is None and config.n_cells == 7
    path.write_text(json.dumps({"jb_values": [1, 2.5]}))
    config = _resolve(["length-sweep", "--config", str(path)])
    assert [type(v) for v in config.jb_values] == [float, float]


def test_length_sweep_outputs_and_determinism(tmp_path):
    args = ["length-sweep", "--geometries", "dimer", "--jb-values", "1",
            "--n-min", "2", "--n-max", "6", "--fit-min-cells", "2",
            "--jobs", "2"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_ok(args + ["--out", str(first)])
    run_ok(args + ["--out", str(second)])
    for name in ("length_sweep.csv", "length_sweep_fits.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    rows = read_csv(first / "length_sweep.csv")
    assert len(rows) == 5
    fits = read_csv(first / "length_sweep_fits.csv")
    assert len(fits) == 1
    assert float(fits[0]["beta"]) > 0


def test_csv_uses_crlf_and_full_precision(tmp_path):
    run_ok(["length-sweep", "--geometries", "mono", "--jb-values", "1",
            "--n-min", "2", "--n-max", "4", "--fit-min-cells", "2",
            "--out", str(tmp_path)])
    blob = (tmp_path / "length_sweep.csv").read_bytes()
    assert b"\r\n" in blob
    rows = read_csv(tmp_path / "length_sweep.csv")
    text = rows[0]["current"]
    assert len(text.split(".")[-1].rstrip("0")) >= 10  # 17 significant digits
    assert float(text) > 0


def test_jb_sweep(tmp_path):
    run_ok(["length-sweep", "--geometries", "dimer,prism", "--jb-values",
            "0.5,1", "--n-min", "4", "--n-max", "4", "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "length_sweep.csv")
    assert len(rows) == 4
    assert {row["geometry"] for row in rows} == {"dimer", "prism"}


def test_disorder_without_raw_table(tmp_path):
    run_ok(["disorder", "--geometries", "dimer", "--jb-values", "10",
            "--n-cells", "3", "--n-realizations", "2", "--no-keep-raw",
            "--out", str(tmp_path)])
    assert len(read_csv(tmp_path / "disorder_stats.csv")) == 1
    assert not (tmp_path / "disorder_raw.csv").exists()


def test_disorder_command(tmp_path):
    run_ok(["disorder", "--geometries", "dimer", "--jb-values", "10",
            "--n-cells", "5", "--sigma", "0.9", "--n-realizations", "6",
            "--seed", "9", "--out", str(tmp_path)])
    stats = read_csv(tmp_path / "disorder_stats.csv")
    assert len(stats) == 1
    assert int(stats[0]["n_failed"]) == 0
    raw = read_csv(tmp_path / "disorder_raw.csv")
    assert len(raw) == 6
    # the dimer census at the default threshold
    assert {int(row["n_dark"]) for row in raw} <= set(range(11))


def test_disorder_rejects_a_dark_threshold_before_any_output(tmp_path,
                                                             capsys):
    out = tmp_path / "out"
    assert main(["disorder", "--geometries", "dimer", "--n-cells", "2",
                 "--n-realizations", "2", "--dark-threshold", "2",
                 "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"] == "dark_threshold must lie in (0, 1), got 2.0"
    assert not out.exists()


def test_eigen_rejects_a_dark_threshold_before_anything_is_built(
        tmp_path, capsys, monkeypatch):
    built = spy_builds(monkeypatch)
    out = tmp_path / "out"
    assert main(["eigen", "--geometry", "dimer", "--n-cells", "2",
                 "--dark-threshold", "2", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"] == "dark_threshold must lie in (0, 1), got 2.0"
    assert built == []
    assert not out.exists()


def test_regime_grid_command(tmp_path):
    run_ok(["regime-grid", "--geometries", "mono", "--jb-values", "1",
            "--n-cells", "4", "--sigma", "0.9", "--n-realizations", "2",
            "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "regime_grid.csv")
    # 3 loss regimes x 2 dipole settings x (1 clean + 2 realizations)
    assert len(rows) == 18
    assert {row["error"] for row in rows} == {""}


def test_brme_check_command(tmp_path):
    run_ok(["brme-check", "--geometries", "mono", "--jb-values", "1",
            "--n-min", "2", "--n-max", "5", "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "brme_check.csv")
    assert len(rows) == 2  # n = 2 and n = 5
    for row in rows:
        assert float(row["rel_difference"]) < 0.1
        assert int(row["krylov_iterations"]) > 0
        assert 0 < float(row["coherence_fraction"]) < 0.05
        # short chains: populations carry the extraction flux to 0.1%
        assert abs(float(row["population_share"]) - 1) < 1e-3


def test_brme_check_keeps_only_lengths_at_or_below_the_cap(tmp_path):
    run_ok(["brme-check", "--geometries", "mono", "--jb-values", "1",
            "--n-max", "20", "--brme-max-cells", "5",
            "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "brme_check.csv")
    assert [row["n_cells"] for row in rows] == ["2", "5"]
    assert all(row["current_brme"] for row in rows)


@pytest.mark.parametrize("flags", [
    ["--n-min", "30", "--n-max", "40"],
    ["--n-min", "10", "--brme-max-cells", "5"],
], ids=["outside-range", "above-cap"])
def test_brme_check_without_a_length_fails_before_any_output(tmp_path,
                                                             capsys, flags):
    out = tmp_path / "out"
    assert main(["brme-check", "--geometries", "mono", *flags,
                 "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    n_min = flags[flags.index("--n-min") + 1]
    assert f"[{n_min}, " in record["message"]
    assert "brme_max_cells" in record["message"]
    assert not out.exists()


def test_eigeninj_sweep_command(tmp_path):
    run_ok(["length-sweep", "--injection-mode", "eigen", "--geometries",
            "mono", "--jb-values", "1", "--n-min", "2", "--n-max", "5",
            "--fit-min-cells", "2", "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "length_sweep.csv")
    assert len(rows) == 4
    meta = json.loads((tmp_path / "length_sweep_meta.json").read_text())
    assert meta["parameters"]["injection_mode"] == "eigen"


def test_no_temporary_files_left_behind(tmp_path):
    run_ok(["steady", "--geometry", "mono", "--n-cells", "3",
            "--out", str(tmp_path)])
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_negative_seed_is_rejected_by_name(tmp_path, capsys):
    assert main(["disorder", "--seed", "-1", "--n-realizations", "2",
                 "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"] == "seed must be >= 0, got -1"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_disorder_width_fails_before_any_output(tmp_path, capsys,
                                                          sigma):
    out = tmp_path / "out"
    assert main(["disorder", "--geometries", "dimer", "--n-cells", "2",
                 "--sigma", sigma, "--n-realizations", "2",
                 "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "HamiltonianError"
    assert "sigma" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("command,flag,error", [
    ("length-sweep", "--temperature", "ChannelError"),
    ("eigen", "--temperature", "ChannelError"),
    ("length-sweep", "--jb-values", "HamiltonianError"),
    ("steady", "--gamma-inj", "ChannelError"),
    ("disorder", "--bath-peak", "ChannelError"),
    ("regime-grid", "--delta-e", "HamiltonianError"),
])
def test_non_finite_parameter_fails_by_name_before_any_output(
        tmp_path, capsys, command, flag, error):
    out = tmp_path / "out"
    assert main([command, flag, "nan", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error
    name = flag[2:].replace("-", "_").removesuffix("_values")
    assert record["message"] == f"{name} must be finite, got nan"
    assert not out.exists()


def test_repeated_sweep_values_fail_by_name(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["length-sweep", "--geometries", "dimer", "--n-min", "2",
                 "--n-max", "4", "--jb-values", "1,1", "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "jb_values" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweeps_reject_fewer_than_one_job_by_name(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert main(["length-sweep", "--geometries", "dimer", "--n-min", "2",
                 "--n-max", "3", "--jobs", jobs, "--out", str(out)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert record["message"] == f"jobs must be >= 1, got {jobs}"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["steady", "--geometry", "mono", "--n-cells", "2"],
    ["eigen", "--geometry", "dimer", "--n-cells", "2"],
], ids=["steady", "eigen"])
def test_every_command_rejects_fewer_than_one_job(tmp_path, capsys, command):
    # single-point commands run no workers, so they take no --jobs at all
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        main([*command, "--jobs", "0", "--out", str(out)])
    assert err.value.code == 2
    assert f"{command[0]} does not read --jobs 0" in capsys.readouterr().err
    assert not out.exists()


def spy_builds(monkeypatch) -> list:
    """The arguments of every system the CLI builds from now on."""
    built = []
    real = cli.build_system
    monkeypatch.setattr(cli, "build_system",
                        lambda *args, **kwargs: built.append(args)
                        or real(*args, **kwargs))
    return built


def test_steady_rejects_a_method_that_does_not_apply(tmp_path, capsys,
                                                     monkeypatch):
    built = spy_builds(monkeypatch)
    assert main(["steady", "--geometry", "mono", "--n-cells", "2",
                 "--method", "both", "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ValueError"
    assert "'both'" in record["message"]
    assert built == []
    assert list(tmp_path.iterdir()) == []


def test_solver_failure_produces_error_record(tmp_path, capsys):
    # eigen-target channels need at least one excited level above ground;
    # a tiny manifold offset with a huge ground energy breaks the gap
    assert main(["steady", "--geometry", "mono", "--n-cells", "2",
                 "--e0", "1.0", "--eg", "5.0", "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SpectralError"
    assert not (tmp_path / "steady_state.json").exists()


SCIPY_FREE_SCRIPT = """
import json, sys
from excitonchain import cli

out = sys.argv[1]
for args in (
        ["disorder", "--geometries", "dimer,prism", "--n-cells", "6",
         "--jb-values", "1,10", "--n-realizations", "5"],
        ["steady", "--geometry", "prism", "--n-cells", "5"],
        ["length-sweep", "--geometries", "mono,dimer,cuboid", "--n-min", "2",
         "--n-max", "8"]):
    jobs = [] if args[0] == "steady" else ["--jobs", "2"]
    assert cli.main([*args, *jobs, "--out", f"{out}/{args[0]}"]) == 0
from excitonchain.pme import SteadyStateError, _steady_rows, build_generator

# a rate graph with two closed classes, {0, 1} and {2}
_, _, [error] = _steady_rows(
    build_generator([[0, 1, 0], [1, 0, 0], [0, 0, 0]]).chi[None])
assert isinstance(error, SteadyStateError), error
assert error.components == [[0, 1], [2]], error.components


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


loaded = {"population": scipy_modules(),
          "brme_module": "excitonchain.brme" in sys.modules}

import excitonchain
from excitonchain import EnvironmentParams, HamiltonianParams
from excitonchain.experiments import solve_point

brme = solve_point("prism", 3, 1.0, HamiltonianParams(), EnvironmentParams(),
                   method="brme").current
loaded["brme"] = scipy_modules()
pinned = solve_point("dimer", 24, 1.0, HamiltonianParams(),
                     EnvironmentParams()).current
loaded["pinned"] = "scipy.linalg" in sys.modules
names = {}
exec("from excitonchain import *", names)
print(json.dumps({**loaded, "pinned_current": pinned, "brme_current": brme,
                  "bound": sorted(vars(excitonchain).keys() & {
                      "__getattr__", "Liouvillian", "brme_steady_state",
                      "build_liouvillian"}),
                  "unbound": sorted(set(excitonchain.__all__) - set(names))}))
"""


def test_population_runs_start_without_scipy(tmp_path):
    # a fresh interpreter, so no other test's imports count
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", SCIPY_FREE_SCRIPT,
                          str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout)
    assert result["population"] == []
    # nor do they import the density-matrix solver
    assert result["brme_module"] is False
    for name in ("disorder/disorder_raw.csv", "steady/steady_state.json",
                 "length-sweep/length_sweep.csv"):
        assert (tmp_path / name).stat().st_size > 0
    # the density-matrix solver runs on numpy alone; only the pinned rows
    # load scipy, when they run
    assert result["brme"] == []
    assert result["brme_current"] > 0
    assert result["pinned"]
    assert result["pinned_current"] > 0
    # the solver's names are served by a module __getattr__, which
    # imports it at their first use; a star import still binds them all
    assert result["bound"] == ["__getattr__"]
    assert result["unbound"] == []
