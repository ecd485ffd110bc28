import dataclasses
import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

import metrilab.circuits as circuits
import metrilab.cli as cli
from metrilab.circuits import LogicalReadout, build_gate, logical_table, run_flipflop, verify_truth_table
from metrilab.cli import main
from metrilab.config import (_SECTIONS, RunConfig, build_run_config, parse_config,
                             parse_config_text, parse_value)
from metrilab.errors import AmbiguousStateError, InvalidConfigError, MetrilabError
from metrilab.numerics import SeededRng, blas_threads


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

    @pytest.mark.parametrize("section,key", [
        ("exp1", "steps"), ("exp1", "lambda_grid"), ("exp2", "freqs"),
        ("exp3", "rho_grid"), ("exp4", "K"), ("bitflip", "durations"), ("erasure", "D"),
        ("gates", "noise"), ("checks", "tight_snrs"), ("monitor", "window"),
        ("run", "seed"), ("run", "monitor")])
    def test_experiment_configs_are_frozen(self, tmp_path, section, key):
        # a config is checked once, when it is built; neither a section nor
        # the RunConfig holding them can be changed after
        p = tmp_path / "c.cfg"
        p.write_text("exp1.lambda_grid = [1e-3, 1]\nexp3.rho_grid = [0.5, 1]\n")
        cfg = parse_config(str(p))
        sec = cfg if section == "run" else getattr(cfg, section)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sec, key, getattr(sec, key))
        if key.endswith("_grid"):
            # normalized at construction into a tuple of plain floats
            grid = sec.__dict__[key]
            assert type(grid) is tuple and all(type(v) is float for v in grid)

    @pytest.mark.parametrize("section,key,bad", [
        (sec, f.name, bad) for sec, cls in _SECTIONS.items() for f in dataclasses.fields(cls)
        if f.type in (float, tuple) for bad in (np.nan, np.inf)])
    def test_every_float_field_must_be_finite(self, section, key, bad):
        default = getattr(RunConfig(), section).__dict__[key]
        # a tuple field gets the bad value in its first place
        value = [bad, *default[1:]] if isinstance(default, tuple) else bad
        with pytest.raises(InvalidConfigError, match=rf"\[{section}\] .*{key} must be finite"):
            build_run_config({section: {key: value}})

    def test_every_field_type_is_one_the_parser_coerces(self):
        # config._coerce checks float, int, bool, tuple and str values; a
        # field of any other type would be rejected for every value it is given
        types = {f.type for cls in _SECTIONS.values() for f in dataclasses.fields(cls)}
        assert types == {float, int, bool, tuple, str}

    @pytest.mark.parametrize("section", _SECTIONS)
    def test_bound_declarations_stay_out_of_metadata(self, section):
        # POSITIVE/NONNEGATIVE are class attributes: *.meta.json echoes
        # cfg.__dict__, which must hold the dataclass fields and nothing else
        sec = getattr(RunConfig(), section)
        assert set(vars(sec)) == {f.name for f in dataclasses.fields(sec)}
        declared = getattr(sec, "POSITIVE", ()) + getattr(sec, "NONNEGATIVE", ())
        assert set(declared) <= set(vars(sec))

    def test_resolved_echoes_every_default(self):
        resolved = parse_config(None).resolved()
        assert resolved["exp1"]["dt"] == 0.1
        assert resolved["exp4"]["K"] == 8
        assert resolved["checks"]["channel_preset"] == "gaussian"
        assert resolved["monitor"]["I_dot_max"] == 1.0


def run_cli(*argv):
    return main(list(argv))


def _config_error(subcommand, config, name):
    """An exit-code table row whose config is rejected when it is read."""
    return pytest.param(subcommand, config, False, 2, "config-error", id=name)


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

    def test_manifest_records_the_blas_thread_count(self, tmp_path):
        # a fresh interpreter, since OpenBLAS reads its thread variable at load
        out = tmp_path / "m"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "metrilab.cli", "monitor", "--out", str(out), "--quiet"],
                       env=env, check=True)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blas_threads"] == (None if blas_threads() is None else 1)

    def test_exp2_meta_is_strict_json_at_zero_gamma(self, tmp_path):
        # no dissipative channel leaves no oscillator cost to divide by
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[exp2]\nfreqs = [0.6, 1.0]\ntrials_per_freq = 2\nhorizon = 5.0\ngamma = 0\n")
        out = tmp_path / "out"
        assert run_cli("exp2", "--config", str(cfg), "--out", str(out), "--quiet") == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        meta = json.loads((out / "exp2.meta.json").read_text(), parse_constant=refuse)
        assert meta["cost_ratio"] is None

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
    def test_bytes_do_not_move_with_the_blas_thread_variable(self, tmp_path):
        # the last default block of four rho values: unpinned, its ridge fits
        # at two OpenBLAS threads move a low bit of exp3.csv
        cfg = tmp_path / "exp3.cfg"
        cfg.write_text("[exp3]\nrho_grid = [1.5315789473684212, 1.6210526315789475, "
                       "1.710526315789474, 1.8]\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        artifacts = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "metrilab.cli", "exp3", "--seed", "0", "--config",
                            str(cfg), "--out", str(out), "--quiet"], env=env, check=True)
            artifacts[threads] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        assert artifacts["1"] == artifacts["2"]
        manifest = json.loads((tmp_path / "2" / "manifest.json").read_text())
        assert manifest["blas_threads"] == (None if blas_threads() is None else 1)

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

    def test_ambiguous_latch_read_fails_its_row(self, tmp_path, capsys, monkeypatch):
        # a latch read that finds no stored bit fails that FLIPFLOP row with
        # one counterexample; the run goes on and exits 4
        calls = []

        def read_latch(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise AmbiguousStateError("flip-flop state q=-1 qbar=-1 is not a stored bit")
            return circuits.read_latch(*args, **kwargs)

        monkeypatch.setattr(cli, "read_latch", read_latch)
        out = tmp_path / "g"
        assert run_cli("gates", "--out", str(out), "--quiet") == 4
        assert len(calls) == 2
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert lines == [{"error": "check-failed", "gate": "FLIPFLOP", "noise": 0.0,
                          "counterexamples": 1}]
        rows = (out / "gates.csv").read_text().strip().splitlines()[1:]
        assert [r for r in rows if r.startswith("FLIPFLOP")] == ["FLIPFLOP,0,0,1", "FLIPFLOP,0.001,1,0"]

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

    @pytest.mark.parametrize("quiet", (True, False))
    @pytest.mark.parametrize("subcommand,config,named", [
        ("checks", "[checks]\nchannel_preset = corrupted\ntur_ensembles = 2\n"
                   "trace_random_channels = 3\nclassical_trials = 120\n",
         [{"name": n} for n in ("trace_bound_gaussian", "trace_bound_logistic_00",
                                "trace_bound_logistic_01", "trace_bound_logistic_02")]),
        ("gates", "[gates]\nh_ff = 2.5\n",
         [{"gate": "FLIPFLOP", "noise": 0.0, "counterexamples": 1},
          {"gate": "FLIPFLOP", "noise": 1e-3, "counterexamples": 1}]),
        # the saturated logistic's exp overflow is no warning on stderr
        ("gates", "[gates]\ngain = 1000\n",
         [{"gate": "FLIPFLOP", "noise": 0.0, "counterexamples": 1},
          {"gate": "FLIPFLOP", "noise": 1e-3, "counterexamples": 1}]),
    ], ids=["checks", "gates", "gates_gain_1000"])
    def test_failing_rows_named(self, tmp_path, capsys, subcommand, config, named, quiet):
        # each failing row is one JSON line on stderr, --quiet or not, and is
        # listed in the manifest
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        argv = [subcommand, "--config", str(cfg), "--seed", "0", "--out", str(out)]
        assert run_cli(*argv, *(["--quiet"] if quiet else [])) == 4
        captured = capsys.readouterr()
        assert (captured.out == "") == quiet
        lines = [json.loads(line) for line in captured.err.splitlines()]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 4
        assert [{"error": "check-failed", **row} for row in manifest["failures"]] == lines
        assert len(lines) == len(named)
        for line, expected in zip(lines, named):
            assert expected.items() <= line.items()
        if subcommand == "checks":
            for line in lines:
                assert line["slack"] == pytest.approx(line["rhs"] - line["lhs"])
                assert line["slack"] < 0

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
        # the burn-in's seven steps stay finite; the first protocol step overflows
        assert err["detail"] == "non-finite double-well state by protocol step 1"

    @pytest.mark.parametrize("subcommand,config,out_is_file,code,error", [
        _config_error("checks", "[checks]\ntur_walkers = 1\n", "tur_walkers"),
        _config_error("checks", "[checks]\nclassical_trials = 1\n", "classical_trials"),
        _config_error("erasure", "[erasure]\ntrials = 1\n", "erasure_trials"),
        _config_error("bitflip", "[bitflip]\ntrials = 1\n", "bitflip_trials"),
        _config_error("gates", "[gates]\npulse_amplitude = 3.0\n", "pulse_amplitude"),
        pytest.param("monitor", "", True, 2, "bad-output-dir", id="out_is_file"),
        _config_error("exp1", "[exp1]\nridge = -1\n", "exp1_ridge"),
        _config_error("exp3", "[exp3]\nridge = -1\n", "exp3_ridge"),
        _config_error("exp4", "[exp4]\nstride = 0\n", "exp4_stride"),
        _config_error("exp4", "[exp4]\npatch = 0\n", "exp4_patch"),
        _config_error("exp4", "[exp4]\nbins = 0\n", "exp4_bins"),
        _config_error("exp4", "[exp4]\nframe_every = 0\n", "exp4_frame_every"),
        _config_error("exp4", "[exp4]\nheight = 4\nwidth = 4\n", "exp4_patch_exceeds_lattice"),
        _config_error("monitor", "[monitor]\nchi_min = 5\nchi_max = 1\n", "monitor_chi_range"),
        _config_error("monitor", "[monitor]\nP_max = 0\n", "monitor_P_max"),
        _config_error("bitflip", "[bitflip]\ndt = 0\n", "bitflip_dt"),
        _config_error("bitflip", "[bitflip]\nsnapshots = 0\n", "bitflip_snapshots"),
        _config_error("bitflip", "[bitflip]\nhist_bins = 0\n", "bitflip_hist_bins"),
        _config_error("bitflip", "[bitflip]\ndurations = [0.0, 10.0]\n", "bitflip_durations"),
        _config_error("erasure", "[erasure]\nT_protocol = 0\n", "erasure_T_protocol"),
        _config_error("exp1", "[exp1]\ndim = 0\nrot_pairs = 0\n", "exp1_dim"),
        _config_error("exp3", "[exp3]\nn_reservoir = 0\n", "exp3_n_reservoir"),
        _config_error("exp1", "[exp1]\ndt = 0\n", "exp1_dt"),
        _config_error("exp1", "[exp1]\ndt = -0.1\n", "exp1_dt_negative"),
        _config_error("exp1", "[exp1]\nalpha = 0\n", "exp1_alpha"),
        _config_error("exp2", "[exp2]\ndt = 0\n", "exp2_dt"),
        _config_error("exp2", "[exp2]\nhorizon = 0\n", "exp2_horizon"),
        _config_error("exp2", "[exp2]\nalpha = 0\n", "exp2_alpha"),
        _config_error("exp3", "[exp3]\nperiods = [0]\n", "exp3_periods"),
        _config_error("checks", "[checks]\nnear_eq_ratio = -1\n", "checks_near_eq_ratio"),
        # the near-equilibrium walk's backward or forward hop rounds to 0
        _config_error("checks", "[checks]\nnear_eq_ratio = 1e16\n", "checks_near_eq_ratio_huge"),
        _config_error("checks", "[checks]\nnear_eq_ratio = 5e-324\n", "checks_near_eq_ratio_tiny"),
        _config_error("checks", "[checks]\nclassical_T = 0\n", "checks_classical_T"),
        _config_error("bitflip", "[bitflip]\nD = 0\n", "bitflip_D"),
        _config_error("erasure", "[erasure]\nD = 0\n", "erasure_D"),
        _config_error("exp3", "[exp3]\namps = [1.0]\n", "exp3_amps_periods"),
        _config_error("exp1", "[exp1]\nrot_pairs = -1\n", "exp1_rot_pairs"),
        _config_error("exp1", "[exp1]\nfreq_low = 50\n", "exp1_freq_range"),
        _config_error("exp1", "[exp1]\nk_lags = 0\n", "exp1_k_lags"),
        _config_error("exp1", "[exp1]\ninput_noise = nan\n", "exp1_input_noise_nan"),
        _config_error("exp1", "[exp1]\nstate_noise = nan\n", "exp1_state_noise_nan"),
        _config_error("exp1", "[exp1]\nstate_noise = -0.01\n", "exp1_state_noise_negative"),
        _config_error("exp2", "[exp2]\nbits = -1\n", "exp2_bits"),
        _config_error("exp2", "[exp2]\ngamma = -1\n", "exp2_gamma"),
        _config_error("exp2", "[exp2]\nfreqs = [0, 1.0]\n", "exp2_freqs_zero"),
        _config_error("exp2", "[exp2]\nfreqs = [inf]\n", "exp2_freqs_inf"),
        _config_error("exp2", "[exp2]\ncouple = nan\n", "exp2_couple_nan"),
        _config_error("exp4", "[exp4]\neccentricity = 0\n", "exp4_eccentricity_zero"),
        _config_error("exp4", "[exp4]\nnoise_amp = 2\n", "exp4_noise_amp"),
        _config_error("bitflip", "[bitflip]\nC_max = nan\n", "bitflip_C_max_nan"),
        _config_error("bitflip", "[bitflip]\ndurations = [inf]\n", "bitflip_durations_inf"),
        _config_error("exp1", "[exp1]\nridge = nan\n", "exp1_ridge_nan"),
        _config_error("exp1", "[exp1]\namp1 = nan\n", "exp1_amp1_nan"),
        _config_error("exp1", "[exp1]\nomega1 = inf\n", "exp1_omega1_inf"),
        _config_error("exp1", "[exp1]\nlambda_grid = [0.01, inf]\n", "exp1_lambda_grid_inf"),
        _config_error("exp2", "[exp2]\nosc_noise = nan\n", "exp2_osc_noise_nan"),
        _config_error("exp2", "[exp2]\nobs_noise = -1\n", "exp2_obs_noise_negative"),
        _config_error("exp2", "[exp2]\nhyst_frac = -0.1\n", "exp2_hyst_frac_negative"),
        _config_error("exp2", "[exp2]\namp = 0\n", "exp2_amp_zero"),
        _config_error("exp2", "[exp2]\nfreqs = [1.0, 1.0]\n", "exp2_freqs_duplicate"),
        _config_error("exp3", "[exp3]\nrho_grid = [0.5, inf]\n", "exp3_rho_grid_inf"),
        _config_error("exp4", "[exp4]\neps = 0\n", "exp4_eps_zero"),
        _config_error("monitor", "[monitor]\nwindow = 0\n", "monitor_window_zero"),
        _config_error("monitor", "[monitor]\nsteps = 0\n", "monitor_steps_zero"),
        _config_error("monitor", "[monitor]\ndt = -1\n", "monitor_dt_negative"),
        _config_error("monitor", "[monitor]\nlam = nan\n", "monitor_lam_nan"),
        _config_error("checks", "[checks]\ntight_snrs = [-1]\n", "checks_tight_snrs_negative"),
        _config_error("exp3", "[exp3]\namps = [a, 1, 2]\n", "exp3_amps_text"),
        _config_error("gates", "[run]\nseed = -5\n", "run_seed_negative"),
        _config_error("exp2 --seed -1", "", "cli_seed_negative"),
        _config_error("gates", "[gates]\ntheta_and = 5.0\n", "gates_theta_and"),
        pytest.param("monitor", None, False, 2, "config-unreadable", id="config_is_directory"),
        _config_error("monitor", b"[monitor]\nsteps = 10  # \xff\n", "config_not_utf8"),
        # wells at +-1e150, where the noise is below the state's resolution:
        # every snapshot is one value, and no 128 finite bins fit its range
        _config_error("bitflip", "[bitflip]\na = 1e-300\ntrials = 20\ndurations = [1.0]\n",
                      "bitflip_hist_range_collapsed"),
        _config_error("checks", "[bitflip]\na = 1e-300\n[checks]\nclassical_trials = 20\n"
                      "classical_T = 1.0\ntur_ensembles = 2\ntrace_random_channels = 0\n",
                      "checks_hist_range_collapsed"),
        # finite states whose quartic energies or heat spread overflow
        pytest.param("bitflip", "[bitflip]\ndt = 0.5\ntrials = 20\ndurations = [1.0]\n", False, 3,
                     "numerical-failure", id="bitflip_energy_overflow"),
        pytest.param("erasure", "[erasure]\ndt = 0.5\ntrials = 20\nT_protocol = 1.0\n", False, 3,
                     "numerical-failure", id="erasure_heat_overflow"),
    ])
    def test_exit_code_table(self, tmp_path, capsys, subcommand, config, out_is_file, code, error):
        # each failure ends in its documented code with one JSON line on
        # stderr; an exception escaping main fails the test. `subcommand`
        # may carry extra arguments after the name. A `config` of None makes
        # --config name a directory; bytes are written as they are.
        cfg = tmp_path / "c.cfg"
        if config is None:
            cfg.mkdir()
        elif isinstance(config, bytes):
            cfg.write_bytes(config)
        else:
            cfg.write_text(config)
        out = tmp_path / "out"
        if out_is_file:
            out.write_text("not a directory\n")
        argv = [*subcommand.split(), "--config", str(cfg), "--out", str(out), "--quiet"]
        assert run_cli(*argv) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    @pytest.mark.parametrize("subcommand,config,blocked", [
        ("monitor", "", "monitor.json"),
        ("monitor", "", "manifest.json"),
        ("exp4", "[exp4]\nheight = 64\nwidth = 64\nsteps = 30\nradius = 9\n"
                 "peak = 120\nsave_fields = true\n", "field_t0010.npy"),
    ], ids=["sidecar", "manifest", "exp4_field"])
    def test_unwritable_artifact_exits_config(self, tmp_path, capsys, subcommand, config, blocked):
        # an artifact whose path is a directory ends like an --out that
        # cannot be made: exit 2 and one bad-output-dir line, no traceback
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_cli(subcommand, "--config", str(cfg), "--out", str(out), "--quiet") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "bad-output-dir"
        assert blocked in err["detail"]

    @pytest.mark.parametrize("config,key", [
        ("[bitflip]\ndurations = []\n", "bitflip.durations"),
        ("[bitflip]\nT_protocol = 5\n", "bitflip.T_protocol"),
        ("[erasure]\ndurations = [5.0]\n", "erasure.durations"),
    ], ids=("bitflip_durations_empty", "bitflip_T_protocol_unread", "erasure_durations_unread"))
    def test_protocol_key_error_names_the_key(self, tmp_path, capsys, config, key):
        # bitflip sweeps its durations and erasure runs its T_protocol; the
        # other key of each, or no duration at all, is a config error
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        argv = [key.split(".")[0], "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        assert run_cli(*argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert err["detail"].startswith(key)

    @pytest.mark.parametrize("config,key", [
        ("[checks]\ntight_snrs = [0.1, 0.01, 0.1]\n", "checks.tight_snrs"),
        ("[checks]\nclassical_T = 0.002\n", "checks.classical_T"),
        ("[bitflip]\nsnapshots = 1\n", "bitflip.snapshots"),
    ], ids=("tight_snrs_repeated", "classical_T_one_step", "snapshots_one"))
    def test_checks_config_error_names_the_key(self, tmp_path, capsys, config, key):
        # a repeated SNR would write two rows of one name; a power-bound
        # protocol needs 3 snapshot times, so 2 steps and 2 snapshots
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        assert run_cli("checks", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config-error"
        assert key in err["detail"]
        assert not (tmp_path / "out" / "checks.csv").exists()

    def test_bitflip_runs_with_one_snapshot(self, tmp_path):
        # only the power-bound rows of checks need the flux series
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[bitflip]\nsnapshots = 1\ntrials = 50\ndurations = [1.0]\n")
        assert run_cli("bitflip", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 0

    def test_bitflip_runs_at_tiny_kT(self, tmp_path):
        # kT = 1e-300: the free energy's Boltzmann exponent overflows to
        # -inf away from the minimum, which is exp's right limit, not an error
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[bitflip]\na = 1e-10\nD = 1e-300\ntrials = 20\ndurations = [1.0]\n")
        assert run_cli("bitflip", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet") == 0

    def test_erasure_subcommand(self, tmp_path):
        out = tmp_path / "e"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[erasure]\ntrials = 150\nT_protocol = 10.0\n")
        assert run_cli("erasure", "--config", str(cfg), "--seed", "1",
                       "--out", str(out), "--quiet") == 0
        rep = json.loads((out / "erasure.report.json").read_text())
        assert rep["trials"] == 150
        assert "ledger_entropy" in rep


# ---------------------------------------------------------------------------
# gates: one stacked batch for every table and one 2-row latch against the
# per-level loop
# ---------------------------------------------------------------------------

def per_level_gate_rows(gcfg, seed):
    """The gates rows as a loop over the two noise levels: one truth-table
    settle and one latch run per level."""
    readout = LogicalReadout()
    rows = []
    rng = SeededRng(seed)
    for i, kind in enumerate(("NOT", "AND", "OR", "NAND", "NOR", "XOR")):
        circuit = build_gate(kind, gcfg)
        table = logical_table(kind)
        for noise in (0.0, gcfg.noise):
            res = verify_truth_table(circuit, table, readout, noise=noise,
                                     rng=rng.derive(i) if noise else None)
            rows.append({"gate": kind, "noise": noise, "passed": res.passed,
                         "counterexamples": len(res.counterexamples)})
    ff = build_gate("FLIPFLOP", gcfg)
    for noise in (0.0, gcfg.noise):
        ok = True
        try:
            readings, _ = run_flipflop(
                ff, [("set", 5.0, 10.0), ("reset", 40.0, 45.0)], readout, hold_after=30.0,
                noise=noise, rng=SeededRng(seed).derive(99) if noise else None)
            bits = [b for _, b in readings]
            ok = bits[-2:] == [1, 0] if len(bits) >= 2 else False
        except MetrilabError:
            ok = False
        rows.append({"gate": "FLIPFLOP", "noise": noise, "passed": ok, "counterexamples": 0 if ok else 1})
    return rows


def recorded_gate_rows(monkeypatch, rows_fn, gcfg, seed):
    """rows_fn's rows, with every settled batch and every latch reading's
    hold states recorded, wherever they are called from."""
    settles, latches = [], []
    settle, read = circuits.settle_and_read, circuits.read_latch

    def record_settle(*args, **kwargs):
        settles.append(settle(*args, **kwargs))
        return settles[-1]

    def record_read(circuit, holds, *args, **kwargs):
        latches.append([(t, np.array(x)) for t, x in holds])
        return read(circuit, holds, *args, **kwargs)

    with monkeypatch.context() as m:
        for module in (circuits, cli):
            m.setattr(module, "settle_and_read", record_settle, raising=False)
            m.setattr(module, "read_latch", record_read, raising=False)
        rows = rows_fn(gcfg, seed)
    return rows, settles, latches


GATES_CONFIGS = {
    "default": "",
    "golden": pathlib.Path(__file__).with_name("golden").joinpath("cli", "gates.cfg").read_text(),
    "noise0": "[gates]\nnoise = 0\n",
    "h_ff": "[gates]\nh_ff = 2.5\n",
}


class TestGateRowsAgainstPerLevelLoop:
    @pytest.mark.parametrize("config, seed", [("default", s) for s in range(4)]
                             + [(name, 0) for name in ("golden", "noise0", "h_ff")])
    def test_batched_rows_equal_per_level_loop(self, monkeypatch, config, seed):
        gcfg = build_run_config(parse_config_text(GATES_CONFIGS[config])).gates
        rows, settles, latches = recorded_gate_rows(monkeypatch, cli._gate_rows, gcfg, seed)
        want, want_settles, want_latches = recorded_gate_rows(monkeypatch, per_level_gate_rows, gcfg, seed)
        assert rows == want
        # the twelve table settles as one stacked batch, then the latch's hold check
        assert len(settles) == 2 and len(want_settles) == 13
        stacked, start = settles[0], 0
        for part in want_settles[:12]:
            rows_of = slice(start, start + len(part.labels))
            pad = stacked.states.shape[1] - part.states.shape[1]
            assert stacked.labels[rows_of] == part.labels
            assert stacked.steps[rows_of].tolist() == part.steps.tolist()
            assert np.array_equal(stacked.states[rows_of, pad:], part.states)
            assert (stacked.states[rows_of, :pad] == 0.0).all()
            start += len(part.labels)
        assert start == len(stacked.labels)
        assert settles[1].labels == want_settles[12].labels
        assert np.array_equal(settles[1].states, want_settles[12].states)
        assert len(latches) == len(want_latches) == 2
        for got, ref in zip(latches, want_latches):
            assert [t for t, _ in got] == [t for t, _ in ref]
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(got, ref))
