import csv
import json

import pytest

from excitonchain.cli import main


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
    run_ok(["jb-sweep", "--geometries", "dimer,prism", "--jb-values",
            "0.5,1", "--n-cells", "4", "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "jb_sweep.csv")
    assert len(rows) == 4
    assert {row["geometry"] for row in rows} == {"dimer", "prism"}


def test_disorder_command(tmp_path):
    run_ok(["disorder", "--geometries", "dimer", "--jb-values", "10",
            "--n-cells", "5", "--sigma", "0.9", "--n-realizations", "6",
            "--seed", "9", "--out", str(tmp_path)])
    stats = read_csv(tmp_path / "disorder_stats.csv")
    assert len(stats) == 1
    assert int(stats[0]["n_failed"]) == 0
    raw = read_csv(tmp_path / "disorder_raw.csv")
    assert len(raw) == 6


def test_regime_grid_command(tmp_path):
    run_ok(["regime-grid", "--geometries", "mono", "--jb-values", "1",
            "--n-cells", "4", "--sigma", "0.9", "--n-realizations", "2",
            "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "regime_grid.csv")
    # 3 loss regimes x 2 dipole settings x (1 clean + 2 realizations)
    assert len(rows) == 18


def test_brme_check_command(tmp_path):
    run_ok(["brme-check", "--geometries", "mono", "--jb-values", "1",
            "--n-min", "2", "--n-max", "5", "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "brme_check.csv")
    assert len(rows) == 2  # n = 2 and n = 5
    for row in rows:
        assert float(row["rel_difference"]) < 0.1


def test_eigeninj_sweep_command(tmp_path):
    run_ok(["eigeninj-sweep", "--geometries", "mono", "--jb-values", "1",
            "--n-min", "2", "--n-max", "5", "--fit-min-cells", "2",
            "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "eigeninj_sweep.csv")
    assert len(rows) == 4
    meta = json.loads((tmp_path / "eigeninj_sweep_meta.json").read_text())
    assert meta["sweep"]["injection_mode"] == "eigen"


def test_no_temporary_files_left_behind(tmp_path):
    run_ok(["steady", "--geometry", "mono", "--n-cells", "3",
            "--out", str(tmp_path)])
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_solver_failure_produces_error_record(tmp_path, capsys):
    # eigen-target channels need at least one excited level above ground;
    # a tiny manifold offset with a huge ground energy breaks the gap
    assert main(["steady", "--geometry", "mono", "--n-cells", "2",
                 "--e0", "1.0", "--eg", "5.0", "--out", str(tmp_path)]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "SpectralError"
    assert not (tmp_path / "steady_state.json").exists()
