import json
import os
import platform

import numpy as np
import pytest

from metrilab.cli import main
from metrilab.config import parse_config, parse_config_text, parse_value
from metrilab.errors import InvalidConfigError


class TestValueParsing:
    def test_scalars(self):
        assert parse_value("3") == 3
        assert parse_value("1e-3") == pytest.approx(1e-3)
        assert parse_value("true") is True
        assert parse_value("gaussian") == "gaussian"

    def test_list(self):
        assert parse_value("[1e-3, 1]") == [pytest.approx(1e-3), 1]

    def test_range_expansion(self):
        vals = parse_value("[0.1 .. 1.8 : 20]")
        assert len(vals) == 20
        assert vals[0] == pytest.approx(0.1)
        assert vals[-1] == pytest.approx(1.8)
        diffs = np.diff(vals)
        assert np.allclose(diffs, diffs[0])

    def test_sections_and_dotted_keys_mix(self):
        text = "exp1.steps = 100\n[exp3]\nleak = 0.5\n"
        sections = parse_config_text(text)
        assert sections["exp1"]["steps"] == 100
        assert sections["exp3"]["leak"] == 0.5


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("")
        cfg = parse_config(str(p))
        assert cfg.seed == 0
        assert len(cfg.exp3.rho_grid) == 20

    def test_two_point_sweep(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("exp1.lambda_grid = [1e-3, 1]\n")
        cfg = parse_config(str(p))
        assert cfg.exp1.lambda_grid == (pytest.approx(1e-3), 1.0)

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[exp1]\nbogus = 1\n")
        with pytest.raises(InvalidConfigError, match="exp1.bogus"):
            parse_config(str(p))

    def test_unknown_section(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[nope]\nx = 1\n")
        with pytest.raises(InvalidConfigError, match="nope"):
            parse_config(str(p))

    def test_out_of_range_value_reports_reason(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[exp3]\nleak = 1.5\n")
        with pytest.raises(InvalidConfigError, match="leak"):
            parse_config(str(p))

    def test_resolved_echoes_every_default(self):
        resolved = parse_config(None).resolved()
        assert resolved["exp1"]["dt"] == 0.1
        assert resolved["exp4"]["K"] == 8
        assert resolved["checks"]["channel_preset"] == "gaussian"
        assert resolved["monitor"]["I_dot_max"] == 1.0


def run_cli(*argv):
    return main(list(argv))


class TestCLI:
    def test_exp1_writes_artifacts_and_manifest(self, tmp_path):
        out = tmp_path / "r"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("exp1.lambda_grid = [1e-3, 1]\nexp1.dim = 40\n"
                       "exp1.rot_pairs = 19\nexp1.steps = 400\nexp1.k_lags = 5\n")
        code = run_cli("exp1", "--config", str(cfg), "--seed", "5", "--out", str(out), "--quiet")
        assert code == 0
        assert (out / "exp1.csv").exists()
        meta = json.loads((out / "exp1.meta.json").read_text())
        assert meta["columns"] == ["lambda", "MC", "I_irr_rate", "chi"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["parameters"]["exp1"]["steps"] == 400
        assert "timestamp" in manifest
        assert manifest["kernel_path"] == "numpy"
        assert manifest["versions"] == {"python": platform.python_version(), "numpy": np.__version__}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[exp4]\nheight = 64\nwidth = 64\nsteps = 60\nradius = 9\n"
                       "peak = 120\nframe_every = 10\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("exp4", "--config", str(cfg), "--seed", "7",
                           "--out", str(out), "--quiet") == 0
            outs.append((out / "exp4.csv").read_bytes() + (out / "exp4.meta.json").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("exp2.warp = 9\n")
        assert run_cli("exp2", "--config", str(cfg)) == 2

    def test_missing_config_exit_code(self, tmp_path):
        assert run_cli("exp1", "--config", str(tmp_path / "absent.cfg")) == 2

    def test_gates_subcommand_reports_all_seven(self, tmp_path):
        out = tmp_path / "g"
        assert run_cli("gates", "--out", str(out), "--quiet") == 0
        lines = (out / "gates.csv").read_text().strip().splitlines()
        gates = {row.split(",")[0] for row in lines[1:]}
        assert gates == {"NOT", "AND", "OR", "NAND", "NOR", "XOR", "FLIPFLOP"}
        assert all(row.split(",")[2] == "1" for row in lines[1:])

    @pytest.mark.parametrize("noise", ("-0.1", "nan", "inf"))
    def test_gates_rejects_bad_noise(self, tmp_path, capsys, noise):
        # a negative or non-finite noise would run noiseless yet report a noisy row
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"[gates]\nnoise = {noise}\n")
        out = tmp_path / "g"
        assert run_cli("gates", "--config", str(cfg), "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "gates.noise" in err["detail"]
        assert not (out / "gates.csv").exists()

    def test_protocol_sections_validated_at_parse(self, tmp_path, capsys):
        # [erasure] is checked when the config is read, even by a subcommand
        # that never runs a protocol
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[erasure]\ngamma = 0\n")
        out = tmp_path / "g"
        assert run_cli("gates", "--config", str(cfg), "--out", str(out), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "[erasure]" in err["detail"]
        assert not out.exists()

    def test_system_section_rejected_by_name(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[system]\npreset = harmonic\n")
        assert run_cli("monitor", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert "[system]" in err["detail"]

    def test_checks_corrupted_preset_fails_with_named_rows(self, tmp_path):
        out = tmp_path / "k"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[checks]\nchannel_preset = corrupted\ntur_ensembles = 2\n"
                       "trace_random_channels = 2\nclassical_trials = 120\n")
        code = run_cli("checks", "--config", str(cfg), "--seed", "0",
                       "--out", str(out), "--quiet")
        assert code == 4
        rows = json.loads((out / "checks.json").read_text())
        failed = [r["name"] for r in rows if not r["satisfied"]]
        assert any("trace_bound" in name for name in failed)

    def test_monitor_counts_constant_overflow(self, tmp_path):
        out = tmp_path / "m"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[monitor]\nlam = 10.0\nsteps = 50\nI_dot_max = 1.0\n")
        assert run_cli("monitor", "--config", str(cfg), "--out", str(out), "--quiet") == 0
        rep = json.loads((out / "monitor.json").read_text())
        assert rep["counts"]["info_rate"] == 50

    def test_bitflip_divergence_exits_numerical(self, tmp_path, capsys):
        # dt = 0.3 is past the explicit step's stability limit in the wells
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[bitflip]\ndt = 0.3\ntrials = 20\ndurations = [1.0]\n")
        code = run_cli("bitflip", "--config", str(cfg), "--out", str(tmp_path / "b"), "--quiet")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical-failure"
        assert err["kind"] == "IntegrationDivergedError"

    @pytest.mark.parametrize("subcommand,config,out_is_file,code,error", [
        ("checks", "[checks]\ntur_walkers = 1\n", False, 2, "config-error"),
        ("checks", "[checks]\nclassical_trials = 1\n", False, 2, "config-error"),
        ("erasure", "[erasure]\ntrials = 1\n", False, 2, "config-error"),
        ("bitflip", "[bitflip]\ntrials = 1\n", False, 2, "config-error"),
        ("gates", "[gates]\npulse_amplitude = 3.0\n", False, 2, "config-error"),
        ("monitor", "", True, 2, "bad-output-dir"),
        ("exp1", "[exp1]\nridge = -1\n", False, 2, "config-error"),
        ("exp3", "[exp3]\nridge = -1\n", False, 2, "config-error"),
        ("exp4", "[exp4]\nstride = 0\n", False, 2, "config-error"),
        ("exp4", "[exp4]\npatch = 0\n", False, 2, "config-error"),
        ("exp4", "[exp4]\nbins = 0\n", False, 2, "config-error"),
        ("exp4", "[exp4]\nframe_every = 0\n", False, 2, "config-error"),
        ("exp4", "[exp4]\nheight = 4\nwidth = 4\n", False, 2, "config-error"),
        ("monitor", "[monitor]\nchi_min = 5\nchi_max = 1\n", False, 2, "config-error"),
        ("monitor", "[monitor]\nP_max = 0\n", False, 2, "config-error"),
        ("bitflip", "[bitflip]\ndt = 0\n", False, 2, "config-error"),
        ("bitflip", "[bitflip]\nsnapshots = 0\n", False, 2, "config-error"),
        ("bitflip", "[bitflip]\nhist_bins = 0\n", False, 2, "config-error"),
        ("bitflip", "[bitflip]\ndurations = [0.0, 10.0]\n", False, 2, "config-error"),
        ("erasure", "[erasure]\nT_protocol = 0\n", False, 2, "config-error"),
    ], ids=["tur_walkers", "classical_trials", "erasure_trials", "bitflip_trials",
            "pulse_amplitude", "out_is_file", "exp1_ridge", "exp3_ridge", "exp4_stride",
            "exp4_patch", "exp4_bins", "exp4_frame_every", "exp4_patch_exceeds_lattice",
            "monitor_chi_range", "monitor_P_max", "bitflip_dt", "bitflip_snapshots",
            "bitflip_hist_bins", "bitflip_durations", "erasure_T_protocol"])
    def test_exit_code_table(self, tmp_path, capsys, subcommand, config, out_is_file, code, error):
        # each failure ends in its documented code with one JSON line on
        # stderr; an exception escaping main fails the test
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("not a directory\n")
        assert run_cli(subcommand, "--config", str(cfg), "--out", str(out), "--quiet") == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    def test_erasure_subcommand(self, tmp_path):
        out = tmp_path / "e"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[erasure]\ntrials = 150\nT_protocol = 10.0\n")
        assert run_cli("erasure", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--quiet") == 0
        rep = json.loads((out / "erasure.report.json").read_text())
        assert rep["trials"] == 150
        assert "ledger_entropy" in rep
