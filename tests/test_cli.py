import csv
import inspect
import json
import os

import numpy as np
import pytest

from serrin import _blas, cli, discrete, modes
from serrin.cli import main
from serrin.modes import integrate_riccati, riccati_solution


def run(args):
    return main(args)


class TestSweep:
    def test_zero_mode_column_is_closed_form(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep", "--axis", "xi", "--n-min", "0", "--n-max", "0",
                    "--points", "40", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sweep_xi_n0.csv", delimiter=",", skiprows=1,
                          usecols=(2, 3, 4))
        lam, val, sig = rows.T
        assert np.allclose(sig, -0.5 / np.cos(lam) ** 2, rtol=1e-12)
        assert np.all(val == 0.0)

    def test_eta_curve_crosses_once_in_proved_window(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sweep", "--axis", "eta", "--n-min", "2", "--n-max", "2",
                    "--points", "300", "--out", str(out)]) == 0
        rows = np.loadtxt(out / "sweep_eta_n2.csv", delimiter=",", skiprows=1,
                          usecols=(2, 4))
        lam, sig = rows.T
        crossings = np.flatnonzero(np.diff(np.sign(sig)) != 0)
        assert crossings.size == 1
        lam_cross = lam[crossings[0]]
        assert np.arccos(0.5) < lam_cross < np.pi / 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--axis", "xi", "--n-min", "1", "--n-max", "2",
                "--points", "25"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("sweep_xi_n1.csv", "sweep_xi_n2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_range_is_config_error(self, tmp_path):
        assert run(["sweep", "--lam-min", "0.9", "--lam-max", "0.2",
                    "--out", str(tmp_path)]) == 2

    def test_grid_past_the_swept_range_writes_nothing(self, tmp_path, capsys):
        # the top Chebyshev node of (1e-3, 1.57079) lies past LAMBDA_MAX;
        # the n = 0 curve must not be written before the rejection
        out = tmp_path / "out"
        assert run(["sweep", "--lam-max", "1.57079", "--out", str(out)]) == 2
        assert "outside swept range" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_rtol_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run(["sweep", "--rtol", "1e-8", "--out", str(tmp_path / "flag")])
        assert info.value.code == 2
        config, out = tmp_path / "sweep.cfg", tmp_path / "out"
        config.write_text("rtol = 1e-8\n")
        assert run(["sweep", "--config", str(config), "--out", str(out)]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()


def test_manifest_records_the_blas_policy(tmp_path):
    out = tmp_path / "out"
    assert run(["sweep", "--n-min", "0", "--n-max", "0", "--points", "5",
                "--out", str(out)]) == 0
    blas = json.loads((out / "sweep_manifest.json").read_text())["blas"]
    assert blas == {"library": os.path.basename(_blas.LIBRARY),
                    "caller_threads": _blas.threads(), "solve_threads": 1}


class TestRoots:
    def test_records_and_quarter_pi(self, tmp_path):
        out = tmp_path / "out"
        assert run(["roots", "--axis", "xi", "--n-min", "2", "--n-max", "3",
                    "--out", str(out)]) == 0
        records = json.loads((out / "roots_xi.json").read_text())
        by_n = {r["n"]: r for r in records}
        assert abs(by_n[2]["lambda_n"] - np.pi / 4) < 1e-9
        assert by_n[2]["sigma_prime_closed_form"] > 0.0
        assert by_n[3]["lambda_n"] < by_n[2]["lambda_n"]
        assert all(r["sign_changes"] == 1 for r in records)
        # the Brent step tolerance, not the root's accuracy, which the
        # curve's sweep_rtol bounds
        assert all(r["tolerances"] == {"brent_xtol": 1e-12, "sweep_rtol": 1e-10}
                   for r in records)

    def test_recorded_sweep_rtol_is_the_one_used(self, tmp_path, monkeypatch):
        used = []

        def recording(*args, **kwargs):
            bound = inspect.signature(integrate_riccati).bind(*args, **kwargs)
            bound.apply_defaults()
            used.append(bound.arguments["rtol"])
            return integrate_riccati(*args, **kwargs)

        riccati_solution.cache_clear()
        monkeypatch.setattr(modes, "integrate_riccati", recording)
        assert run(["roots", "--axis", "eta", "--n-min", "2", "--n-max", "3",
                    "--out", str(tmp_path)]) == 0
        records = json.loads((tmp_path / "roots_eta.json").read_text())
        assert [r["tolerances"]["sweep_rtol"] for r in records] == used
        assert len(used) == 2

    def test_low_mode_rejected(self, tmp_path):
        assert run(["roots", "--n-min", "1", "--out", str(tmp_path)]) == 2

    def test_eta_mode_past_the_frobenius_underflow_has_a_root(self, tmp_path):
        # a Frobenius launch would carry the factor (1e-3)^108, zero in floats
        assert run(["roots", "--axis", "eta", "--n-min", "108", "--n-max", "108",
                    "--out", str(tmp_path)]) == 0
        [record] = json.loads((tmp_path / "roots_eta.json").read_text())
        assert np.arccos(1.0 / 108) < record["lambda_n"] < np.pi / 2

    def test_empty_mode_range_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(["roots", "--n-min", "5", "--n-max", "3", "--out", str(out)]) == 2
        assert not out.exists()


class TestSolve:
    def test_writes_field_files(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--axis", "xi", "--lam", "0.8", "--mode", "2",
                    "--amplitude", "0.05", "--resolution", "32x16",
                    "--out", str(out)]) == 0
        header = json.loads((out / "torsion_field.json").read_text())
        assert header["profile"]["axis"] == "xi"
        assert header["residual"] < 1e-10
        trace = np.loadtxt(out / "torsion_field_trace.csv", delimiter=",",
                           skiprows=1)
        assert trace.shape == (16, 2)

    def test_profile_json_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        pj = tmp_path / "profile.json"
        pj.write_text(json.dumps({"axis": "eta", "coeffs": [1.0, 0.0, 0.03],
                                  "n_modes": 2}))
        assert run(["solve", "--profile-json", str(pj),
                    "--resolution", "32x16", "--out", str(out)]) == 0

    def test_mode_zero_amplitude_shifts_the_radius(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--lam", "0.8", "--amplitude", "0.05",
                    "--resolution", "32x16", "--out", str(out)]) == 0
        header = json.loads((out / "torsion_field.json").read_text())
        assert header["profile"]["coeffs"] == [0.8 + 0.05]

    def test_negative_mode_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(["solve", "--mode", "-1", "--amplitude", "0.05",
                    "--resolution", "32x16", "--out", str(out)]) == 2
        assert not out.exists()

    def test_negative_linearization_mode_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(["check-linearization", "--mode", "-1", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("content", [
        None, '{"axis": "xi", "coeffs": [0.8', '[0.8, 0.0, 0.03]', '{"axis": "xi"}',
        '{"axis": "xi", "coeffs": [0.8, "wide"]}',
    ], ids=["missing", "malformed", "list", "no-coeffs", "non-numeric"])
    def test_unreadable_profile_json_is_config_error(self, tmp_path, capsys, content):
        out, pj = tmp_path / "out", tmp_path / "profile.json"
        if content is not None:
            pj.write_text(content)
        assert run(["solve", "--profile-json", str(pj), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and (
            "profile_json" in err or "profile JSON" in err)
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_profile_json_conflicts_with_profile_options(self, tmp_path, source):
        out = tmp_path / "out"
        pj = tmp_path / "profile.json"
        pj.write_text(json.dumps({"axis": "eta", "coeffs": [1.0, 0.0, 0.03]}))
        args = ["solve", "--profile-json", str(pj), "--resolution", "32x16",
                "--out", str(out)]
        if source == "flag":
            args += ["--lam", "0.8"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("amplitude = 0.05\n")
            args += ["--config", str(cfg)]
        assert run(args) == 2
        assert not out.exists()

    def test_config_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        # the profile conflict check reuses the keys that resolved the options
        pj, cfg = tmp_path / "profile.json", tmp_path / "run.cfg"
        pj.write_text(json.dumps({"axis": "xi", "coeffs": [0.8, 0.0, 0.02]}))
        cfg.write_text("resolution = 32x16\n")
        reads = []
        original = cli._read

        def counted(path, what):
            reads.append(what)
            return original(path, what)
        monkeypatch.setattr(cli, "_read", counted)
        args = ["solve", "--config", str(cfg), "--profile-json", str(pj)]
        assert run(args + ["--out", str(tmp_path / "ok")]) == 0
        assert reads == ["config file", "profile_json"]
        reads.clear()
        cfg.write_text("resolution = 32x16\nlam = 0.8\n")
        assert run(args + ["--out", str(tmp_path / "clash")]) == 2
        assert reads == ["config file"]
        assert "conflicts with ['lam']" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = xi\nn_min = 2\nn_max = 2\n# comment\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert run(["roots", "--config", str(cfg), "--out", str(out1)]) == 0
        assert (out1 / "roots_xi.json").exists()
        assert run(["roots", "--config", str(cfg), "--axis", "eta",
                    "--out", str(out2)]) == 0
        assert (out2 / "roots_eta.json").exists()

    def test_config_naming_a_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["solve", "--config", str(tmp_path), "--out", str(out)]) == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_minn = 2\n")
        assert run(["roots", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["solve", "roots"])
    def test_unknown_axis_value_is_config_error(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = zeta\n")
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["solve", "check-linearization", "branch"])
    def test_rejected_run_leaves_no_out_dir(self, tmp_path, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = zeta\n")
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    # NaN compares false both ways, so a check must be written to fail it
    @pytest.mark.parametrize("args", [["solve", "--lam", "nan"],
                                      ["solve", "--amplitude", "nan"],
                                      ["branch", "--smax", "nan"]])
    def test_nan_option_is_config_error_before_any_work(self, tmp_path, args):
        out = tmp_path / "out"
        assert run(args + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_axis_flag_leaves_no_out_dir(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            run(["branch", "--axis", "zeta", "--out", str(out)])
        assert info.value.code == 2 and not out.exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SERRIN_OUT_DIR", str(tmp_path / "envout"))
        assert run(["roots", "--axis", "xi", "--n-min", "2", "--n-max", "2"]) == 0
        assert (tmp_path / "envout" / "roots_xi.json").exists()


class TestBranch:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["branch", "--axis", "xi", "--mode", "2", "--resolution", "48x32",
                "--truncation", "8", "--steps", "1", "--smax", "0.005"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        for name in ("branch_xi_j2.csv", "branch_xi_j2.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        header = (a / "branch_xi_j2.csv").read_text().splitlines()[0].split(",")
        assert header[8:10] == ["newton_iters", "tangent_jacobians"]
        assert len(header) == 16

    def test_failed_certificate_prints_its_details(self, tmp_path, capsys):
        # at this coarse grid the discrete sigma_3 misses the kernel tolerance
        assert run(["branch", "--axis", "eta", "--mode", "3", "--resolution", "48x30",
                    "--truncation", "12", "--steps", "2", "--smax", "0.01",
                    "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        message, details = captured.err.splitlines()
        assert message.startswith("check failure: hypothesis (ii) kernel")
        details = json.loads(details)
        assert details["resolution"] == [48, 30] and details["truncation"] == 12
        assert len(details["sigmas"]) == 12 + 1
        assert abs(details["lambda_j"] - 1.358006174) < 1e-8


class TestTruncation:
    def test_branch_truncation_below_the_mode_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(["branch", "--mode", "2", "--truncation", "1",
                    "--out", str(out)]) == 2
        assert not out.exists()

    def test_branch_truncation_at_the_nyquist_mode_is_config_error(self, tmp_path, capsys):
        # mode 16 is the Nyquist mode of 32 angle nodes: its discrete sigma is 0
        out = tmp_path / "out"
        assert run(["branch", "--resolution", "48x32", "--out", str(out)]) == 2
        assert "truncation 16 reaches the Nyquist mode 16" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode, resolution, nearest", [("3", "64x64", 66), ("2", "64x30", 32)])
    def test_branch_grid_without_an_even_sector_is_config_error(
            self, tmp_path, capsys, mode, resolution, nearest):
        out = tmp_path / "out"
        assert run(["branch", "--mode", mode, "--resolution", resolution,
                    "--truncation", "12", "--out", str(out)]) == 2
        assert f"the nearest valid M is {nearest}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_linearization_truncation_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        assert run(["check-linearization", "--truncation", "-3",
                    "--out", str(out)]) == 2
        assert not out.exists()

    # 33 aliases to mode 31 on 64 nodes, 32 is the Nyquist mode, and 108 is
    # far past it
    @pytest.mark.parametrize("axis, mode, message", [
        ("xi", "33", "mode 33 reaches the Nyquist mode 32 of 64"),
        ("xi", "32", "mode 32 reaches the Nyquist mode 32 of 64"),
        ("eta", "108", "mode 108 reaches the Nyquist mode 32 of 64"),
        ("xi", "-1", "mode must be >= 0, got -1")])
    def test_linearization_mode_outside_the_angle_grid_is_config_error(
            self, tmp_path, capsys, monkeypatch, axis, mode, message):
        monkeypatch.setattr(cli, "fd_derivative_H",
                            lambda *args, **kwargs: pytest.fail("solved before the check"))
        out = tmp_path / "out"
        assert run(["check-linearization", "--axis", axis, "--mode", mode,
                    "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def _verify_rows(capsys, *args):
    """Run verify; its exit code and its rows as {(check, axis): (status, detail)}."""
    code = run(["verify", "--axis", "both", *args])
    rows = {}
    for line in capsys.readouterr().out.splitlines()[:-1]:
        name, axis, status, detail = line.split(maxsplit=3)
        rows[(name, axis)] = (status, detail)
    return code, rows


class TestVerify:
    def test_clean_battery_passes(self, capsys):
        code, rows = _verify_rows(capsys)
        assert code == 0 and len(rows) == 20
        assert {status for status, _ in rows.values()} == {"PASS"}
        assert {name for name, _ in rows} >= {"certificate", "branch"}

    def test_both_axes_integrate_each_mode_curve_once(self, monkeypatch):
        # xi and eta n = 1..6: one table each
        tables = []
        original = modes._dop853_table

        def counted(*args):
            tables.append(args[-1]["mode"])
            return original(*args)

        riccati_solution.cache_clear()
        monkeypatch.setattr(modes, "_dop853_table", counted)
        assert run(["verify", "--axis", "both"]) == 0
        assert len(tables) == 12 and len({tuple(mode) for mode in tables}) == 12

    def test_axis_filter_runs_requested_rows_only(self, capsys):
        run(["verify", "--axis", "eta"])
        lines = capsys.readouterr().out.strip().splitlines()
        body = [ln for ln in lines if ln and not ln.endswith("passed")]
        assert body and all(" eta " in ln for ln in body)

    @pytest.mark.parametrize("inject", ["sigma-sign", "riccati-init",
                                        "axis-condition"])
    def test_injected_defects_make_the_battery_fail(self, capsys, inject):
        # each injection fails exactly these checks, on both axes
        failing = {"sigma-sign": {"eigen-identity", "sigma-ordering", "sign-window"},
                   "riccati-init": {"riccati-bounds"}, "axis-condition": {"eigen-identity"}}
        code, rows = _verify_rows(capsys, "--inject", inject)
        assert code == 1 and len(rows) == 20
        assert {key for key, (status, _) in rows.items() if status == "FAIL"} == {
            (name, axis) for name in failing[inject] for axis in ("xi", "eta")}

    def test_axis_condition_injection_assembles_no_operator(self, capsys, monkeypatch):
        # verify catches AssertionError in a row, so the refusal raises past it
        def refuse(*args):
            raise RuntimeError("TubeOperator built")
        monkeypatch.setattr(discrete.TubeOperator, "__init__", refuse)
        code, rows = _verify_rows(capsys, "--inject", "axis-condition")
        failed = {key: detail for key, (status, detail) in rows.items() if status == "FAIL"}
        assert code == 1 and set(failed) == {("eigen-identity", "xi"), ("eigen-identity", "eta")}
        assert all(detail.startswith("deviation=") for detail in failed.values())

    def test_failed_row_carries_the_error_details(self, capsys):
        _, rows = _verify_rows(capsys, "--inject", "riccati-init")
        message, details = rows[("riccati-bounds", "eta")][1].split(" {", 1)
        assert message.endswith("violates the lower comparison bound at lam=0.010086")
        details = json.loads("{" + details)
        assert details["mode"] == ["eta", 1] and details["bound_tol"] == 1e-7

    def test_unknown_injection_is_config_error(self, tmp_path, capsys):
        # a config file reaches the injection table past the flag's choices
        cfg = tmp_path / "run.cfg"
        cfg.write_text("inject = axis\n")
        assert run(["verify", "--config", str(cfg)]) == 2
        assert "unknown injection 'axis'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run(["verify", "--inject", "axis"])

    def test_failed_rows_keep_their_columns_in_the_matrix(self, tmp_path):
        # a FAIL row's detail holds commas; the cell is quoted as csv.writer quotes it
        out = tmp_path / "out"
        assert run(["verify", "--axis", "both", "--inject", "riccati-init",
                    "--out", str(out)]) == 1
        with open(out / "verify_matrix.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["check", "axis", "status", "detail"] and len(rows) == 21
        assert {len(row) for row in rows} == {4}
        failed = [row for row in rows if row[2] == "FAIL"]
        assert [row[:2] for row in failed] == [["riccati-bounds", "xi"], ["riccati-bounds", "eta"]]
        assert all("," in row[3] for row in failed)

    def test_matrix_written_when_out_given(self, tmp_path):
        out = tmp_path / "out"
        assert run(["verify", "--axis", "xi", "--out", str(out)]) == 0
        text = (out / "verify_matrix.csv").read_text()
        assert "radial-reference" in text and "FAIL" not in text
