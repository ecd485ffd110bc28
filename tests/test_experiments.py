import dataclasses
import json
import warnings

import numpy as np
import pytest

from metrilab.errors import BorderContactError, InvalidConfigError
from metrilab.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    Exp4Config,
    ca_step,
    initial_blob,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
)
from metrilab import kernels
from metrilab.experiments import exp2, exp4
from metrilab.experiments.base import ExperimentResult, write_json
from metrilab.experiments.exp1 import lagged_r2, make_input
from metrilab.experiments.exp4 import patch_outward_flux
from metrilab.numerics import SeededRng, ridge_fit
from oracles import _patch_outward_flux_loops

# compact configurations keep the unit tests quick; the acceptance module
# runs the full defaults
FAST1 = Exp1Config(dim=60, rot_pairs=29, steps=1200, k_lags=10,
                   lambda_grid=tuple(np.logspace(-3, 1, 6)))
FAST3 = Exp3Config(n_reservoir=80, washout=100, train=400, test=400,
                   rho_grid=tuple(np.linspace(0.1, 1.8, 7)))
FAST4 = Exp4Config(height=96, width=96, steps=120, radius=14.0, peak=150)


@pytest.fixture(scope="module")
def exp1_result():
    return run_exp1(FAST1, seed=0)


def _lagged_r2_fancy(states, u, k_lags, ridge, n_skip):
    # lagged_r2 as it read its train and test rows through index arrays
    idx = np.arange(n_skip, len(u))
    half = len(idx) // 2
    train, test = idx[:half], idx[half:]
    lags = np.arange(1, k_lags + 1)
    w = ridge_fit(states[train], u[train[:, None] - lags], ridge)
    pred = states[test] @ w
    target = u[test[:, None] - lags]
    sp, st = pred.std(axis=0), target.std(axis=0)
    cov = ((pred - pred.mean(axis=0)) * (target - target.mean(axis=0))).mean(axis=0)
    spread = (sp >= 1e-300) & (st >= 1e-300)
    c = np.zeros(k_lags)
    np.divide(cov, sp, out=c, where=spread)
    np.divide(c, st, out=c, where=spread)
    return np.clip(c * c, 0.0, 1.0)


def _lagged_r2_per_lag(states, u, k_lags, ridge, n_skip):
    # one 1-D ridge_fit and one np.corrcoef per lag; a lag whose prediction or
    # target has no spread gets r^2 = 0
    idx = np.arange(n_skip, len(u))
    train, test = idx[: len(idx) // 2], idx[len(idx) // 2 :]
    r2 = np.zeros(k_lags)
    for k in range(1, k_lags + 1):
        pred = states[test] @ ridge_fit(states[train], u[train - k], ridge)
        target = u[test - k]
        if pred.std() < 1e-300 or target.std() < 1e-300:
            continue
        c = float(np.corrcoef(pred, target)[0, 1])
        r2[k - 1] = min(max(c * c, 0.0), 1.0)
    return r2


class TestExp1:

    def test_columns_and_rows(self, exp1_result):
        assert exp1_result.columns == ["lambda", "MC", "I_irr_rate", "chi"]
        assert len(exp1_result.rows) == len(FAST1.lambda_grid)

    def test_information_rate_column_exact(self, exp1_result):
        for row in exp1_result.rows:
            assert row["I_irr_rate"] == row["lambda"] / FAST1.alpha

    def test_mc_bounded_by_lag_count(self, exp1_result):
        assert np.all(exp1_result.column("MC") <= FAST1.k_lags + 1e-12)
        assert np.all(exp1_result.column("MC") >= 0.0)

    def test_chi_consistent_with_mc(self, exp1_result):
        horizon = FAST1.steps * FAST1.dt
        for row in exp1_result.rows:
            assert row["chi"] == pytest.approx(
                FAST1.alpha * row["MC"] / (horizon * row["lambda"]))

    def test_deterministic(self):
        a = run_exp1(FAST1, seed=3)
        b = run_exp1(FAST1, seed=3)
        assert a.to_csv_text() == b.to_csv_text()

    def test_requires_positive_lambda_floor(self):
        with pytest.raises(InvalidConfigError):
            Exp1Config(lambda_grid=(0.0, 1.0))

    @pytest.mark.parametrize("lam", [1e-3, 0.0774, 10.0])
    def test_lagged_r2_equals_per_lag_ridge_fits(self, lam):
        # one multi-column solve and one (T_test, k) product for all lags give
        # the r^2 of one ridge_fit and one np.corrcoef per lag within 1e-13
        # per lag (measured: at most 9.7e-15 over seeds 0-7 and exp1's ten
        # lambdas), on exp1's default-size states
        cfg = Exp1Config()
        base = SeededRng(0)
        omegas = base.derive(0).generator().uniform(cfg.freq_low, cfg.freq_high, cfg.rot_pairs)
        bvec = base.derive(1).generator().standard_normal(cfg.dim)
        bvec /= np.linalg.norm(bvec)
        u = make_input(cfg, base.derive(2))
        noise = 0.01 * base.derive(3).generator().standard_normal((cfg.steps, cfg.dim))
        x0 = bvec.copy()
        states = np.empty((cfg.steps, cfg.dim))
        kernels.rotor_chunk(x0, omegas, lam, bvec, u, noise, cfg.dt, states)

        n_skip = 2 * cfg.k_lags
        expected = _lagged_r2_per_lag(states, u, cfg.k_lags, cfg.ridge, n_skip)
        r2 = lagged_r2(states, u, cfg.k_lags, cfg.ridge, n_skip)
        assert np.max(np.abs(r2 - expected)) <= 1e-13

    def test_lagged_r2_zero_spread_lags_read_zero(self):
        # a lag whose prediction or target is constant reads r^2 = 0 exactly,
        # with no 0/0 warning and no nan: zero states make every prediction
        # zero, a constant u every target; u that is constant except at its
        # third-to-last sample gives constant targets to lags 3 and up only
        gen = SeededRng(5).generator()
        states = gen.standard_normal((400, 12))
        k_lags, n_skip = 6, 12
        u = gen.standard_normal(400)
        step = np.full(400, 0.5)
        step[-3] = 1.5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(lagged_r2(np.zeros_like(states), u, k_lags, 1e-6, n_skip),
                                  np.zeros(k_lags))
            assert np.array_equal(lagged_r2(states, np.full(400, 0.5), k_lags, 1e-6, n_skip),
                                  np.zeros(k_lags))
            r2 = lagged_r2(states, step, k_lags, 1e-6, n_skip)
            expected = _lagged_r2_per_lag(states, step, k_lags, 1e-6, n_skip)
        assert np.array_equal(r2[2:], np.zeros(k_lags - 2))
        assert np.all(r2[:2] > 0.0)
        assert np.max(np.abs(r2 - expected)) <= 1e-13
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mc = run_exp1(dataclasses.replace(FAST1, amp1=0.0, amp2=0.0, input_noise=0.0),
                          seed=0).column("MC")
        assert np.array_equal(mc, np.zeros(len(FAST1.lambda_grid)))

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("steps", [1200, 1201])
    def test_lagged_r2_row_ranges_equal_fancy_index(self, seed, steps):
        # the train/test views select the rows the index arrays did, at an even
        # and an odd number of readout rows
        cfg = dataclasses.replace(FAST1, steps=steps)
        base = SeededRng(seed)
        omegas = base.derive(0).generator().uniform(cfg.freq_low, cfg.freq_high, cfg.rot_pairs)
        bvec = base.derive(1).generator().standard_normal(cfg.dim)
        bvec /= np.linalg.norm(bvec)
        u = make_input(cfg, base.derive(2))
        noise = 0.01 * base.derive(3).generator().standard_normal((cfg.steps, cfg.dim))
        states = np.empty((cfg.steps, cfg.dim))
        n_skip = 2 * cfg.k_lags
        for lam in cfg.lambda_grid:
            kernels.rotor_chunk(bvec.copy(), omegas, lam, bvec, u, noise, cfg.dt, states)
            assert np.array_equal(lagged_r2(states, u, cfg.k_lags, cfg.ridge, n_skip),
                                  _lagged_r2_fancy(states, u, cfg.k_lags, cfg.ridge, n_skip))


@pytest.fixture(scope="module")
def exp2_result():
    return run_exp2(Exp2Config(trials_per_freq=10, horizon=40.0), seed=0)


class TestExp2:

    def test_both_substrates_rows(self, exp2_result):
        assert [r["substrate"] for r in exp2_result.rows] == ["oscillator", "digital"]

    def test_digital_cost_is_reset_count_times_bits(self, exp2_result):
        # mean I equals mean resets * B * ln 2 exactly, from the logged count
        dig = exp2_result.rows[1]
        mean_resets = exp2_result.metadata["mean_resets"]
        assert dig["I_irr"] == pytest.approx(mean_resets * 16 * np.log(2.0), rel=1e-12)

    def test_accuracies_perfect_at_defaults(self, exp2_result):
        assert exp2_result.rows[0]["accuracy"] == 1.0
        assert exp2_result.rows[1]["accuracy"] == 1.0

    def test_single_frequency_set_trivial(self):
        res = run_exp2(Exp2Config(freqs=(1.0,), trials_per_freq=5, horizon=30.0), seed=1)
        assert res.rows[0]["accuracy"] == 1.0
        assert res.rows[1]["accuracy"] == 1.0


def _run_bank_per_step(cfg, omega_in, phase, rng):
    # exp2._run_bank as it was before block draws: one draw per step and kind,
    # sin(theta) once and cos(theta) twice per step, fresh arrays throughout
    n_trials = omega_in.size
    k = len(cfg.freqs)
    steps = cfg.steps
    gen = rng.generator()
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(n_trials, k))
    omegas = np.asarray(cfg.freqs)
    s_sin = np.zeros((n_trials, k))
    s_cos = np.zeros((n_trials, k))
    diss = np.zeros(n_trials)
    u_obs = np.empty((steps, n_trials))
    w_start = int(round((1.0 - cfg.lock_window_frac) * steps))
    sq = np.sqrt(cfg.dt)
    for s in range(steps):
        t = s * cfg.dt
        u = cfg.amp * np.sin(omega_in * t + phase)
        u = u + cfg.obs_noise * gen.standard_normal(n_trials)
        u_obs[s] = u
        sin_t = np.sin(theta)
        diss += cfg.gamma * (sin_t * sin_t).sum(axis=1) * cfg.dt
        if s >= w_start:
            s_sin += sin_t * u[:, None]
            s_cos += np.cos(theta) * u[:, None]
        dtheta = omegas[None, :] + cfg.couple * u[:, None] * np.cos(theta) - cfg.gamma * sin_t
        theta = theta + cfg.dt * dtheta + cfg.osc_noise * sq * gen.standard_normal((n_trials, k))
    scores = s_sin**2 + s_cos**2
    return scores, diss / cfg.alpha, u_obs


def _digital_classify_per_trial(cfg, u_obs):
    # the Schmitt trigger written out: one Python loop over the steps of
    # each trial, holding the state unless a sample lies strictly beyond h
    steps, n_trials = u_obs.shape
    h = cfg.hyst_frac * cfg.amp
    periods = 2.0 * np.pi / np.asarray(cfg.freqs)
    pred = np.empty(n_trials, dtype=int)
    resets = np.empty(n_trials, dtype=int)
    for i in range(n_trials):
        u = u_obs[:, i]
        state = 1 if u[0] > 0 else 0
        cross_times = []
        for s in range(steps):
            if state == 0 and u[s] > h:
                state = 1
                cross_times.append(s)
            elif state == 1 and u[s] < -h:
                state = 0
                cross_times.append(s)
        resets[i] = len(cross_times)
        if len(cross_times) < 2:
            pred[i] = 0
            continue
        half = np.diff(np.asarray(cross_times)) * cfg.dt
        est_period = 2.0 * float(np.median(half))
        pred[i] = int(np.argmin(np.abs(est_period - periods)))
    return pred, resets


def _bank_inputs(cfg, seed):
    # the drive frequencies and phases run_exp2 hands to the bank
    base = SeededRng(seed)
    gen = base.derive(0).generator()
    true_idx = np.repeat(np.arange(len(cfg.freqs)), cfg.trials_per_freq)
    gen.shuffle(true_idx)
    phase = gen.uniform(0.0, 2.0 * np.pi, true_idx.size)
    return np.asarray(cfg.freqs)[true_idx], phase, base.derive(1)


class TestExp2AgainstPerStepOracle:
    """The block-drawn bank and the comparator read through cce.label_jumps
    give the same bits as a per-step bank and a per-trial Schmitt loop."""

    # 2000 steps end in a partial block, 512 steps fill whole ones
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("cfg", [
        Exp2Config(trials_per_freq=5, horizon=20.0),
        Exp2Config(trials_per_freq=2, horizon=5.12),
        Exp2Config(freqs=(1.0,), trials_per_freq=4, horizon=10.0),
        Exp2Config(trials_per_freq=1, horizon=5.13),
    ], ids=["ragged_last_block", "whole_blocks", "one_freq", "one_trial_per_freq"])
    def test_bank_equals_per_step(self, cfg, seed):
        omega_in, phase, rng = _bank_inputs(cfg, seed)
        got = exp2._run_bank(cfg, omega_in, phase, rng)
        ref = _run_bank_per_step(cfg, omega_in, phase, rng)
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("hyst_frac", [0.0, 0.1, 0.5, 1.2])
    def test_counter_equals_per_trial(self, hyst_frac):
        cfg = Exp2Config(trials_per_freq=3, horizon=20.0, hyst_frac=hyst_frac)
        omega_in, phase, rng = _bank_inputs(cfg, 0)
        u_obs = exp2._run_bank(cfg, omega_in, phase, rng)[2]
        steps = cfg.steps
        t = cfg.dt * np.arange(steps)
        h = hyst_frac * cfg.amp
        wave = np.sin(t)
        beyond = np.where(wave > 0.5, 2 * h + 0.1, np.where(wave < -0.5, -(2 * h + 0.1), np.nan))
        levels = [h, -h, 0.0, np.nan, 2 * h + 0.1, -(2 * h + 0.1), 0.05, -0.05]
        extra = {
            "flat": 0.05 + 0.0 * t,                              # never crosses
            "flat_then_wave": np.where(t < 5.0, 0.05, wave),
            "flat_below_then_wave": np.where(t < 5.0, -0.05, wave),
            "zero": np.zeros(steps),                             # never leaves zero
            "edges_only": h * np.sign(wave),                     # at +-h exactly, never beyond
            "wave_via_upper_edge": np.where(np.isnan(beyond), h, beyond),
            "wave_via_lower_edge": np.where(np.isnan(beyond), -h, beyond),
            "wave_via_nan": beyond,                              # starts at NaN
            "random_levels": SeededRng(7).generator().choice(levels, steps),
        }
        u_obs = np.concatenate([u_obs, np.stack(list(extra.values()), axis=1)], axis=1)
        pred, resets = exp2._digital_classify(cfg, u_obs)
        ref_pred, ref_resets = _digital_classify_per_trial(cfg, u_obs)
        assert np.array_equal(pred, ref_pred)
        assert np.array_equal(resets, ref_resets)
        got = dict(zip(extra, resets[-len(extra):].tolist()))
        assert got["flat"] == got["zero"] == got["edges_only"] == 0
        assert min(got[k] for k in extra if k.startswith("wave_via")) > 1
        assert got["random_levels"] > 1
        if hyst_frac < 1.0:
            assert got["flat_then_wave"] > 1 and got["flat_below_then_wave"] > 1
        else:
            # a band above the amplitude leaves few crossings (random_levels,
            # the last column, jumps past it on purpose)
            assert resets[:-1].max() < 20


class TestCAStep:
    def test_uniform_grid_fixed_point(self):
        E = np.full((12, 12), 9, dtype=np.int64)
        E_new, flows = ca_step(E, 8)
        assert np.array_equal(E_new, E)
        assert flows.sum() == 0

    def test_conservation_on_random_grids(self):
        gen = SeededRng(0).generator()
        for _ in range(100):
            E = gen.integers(0, 500, size=(16, 16)).astype(np.int64)
            E_new, _ = ca_step(E, 8)
            assert E_new.sum() == E.sum()
            assert np.all(E_new >= 0)

    def test_hand_computed_hot_cell(self):
        # single cell at 8K on empty background: each neighbor difference is
        # 8K, desired outflow K per neighbor, total exactly the cell content
        K = 8
        E = np.zeros((5, 5), dtype=np.int64)
        E[2, 2] = 8 * K
        E_new, flows = ca_step(E, K)
        assert E_new[2, 2] == 0
        neigh = E_new[1:4, 1:4].ravel().tolist()
        assert neigh[:4] == [K] * 4 and neigh[5:] == [K] * 4
        assert E_new.sum() == 8 * K

    def test_rejects_negative_and_bad_k(self):
        with pytest.raises(ValueError):
            ca_step(np.array([[-1]], dtype=np.int64), 8)
        with pytest.raises(ValueError):
            ca_step(np.zeros((3, 3), dtype=np.int64), 0)


def _run_exp4_full_lattice(cfg, seed, field_sink=None):
    # run_exp4 as it was before the active window: every step and every
    # diagnosis covers the whole lattice
    E = initial_blob(cfg, SeededRng(seed))
    total0 = int(E.sum())
    emax = int(E.max())
    result = ExperimentResult(
        name="exp4",
        columns=["t", "mean_S", "grad_corr", "jaccard", "neighbor_corr", "total_energy"],
        metadata={"seed": seed, "config": cfg.__dict__.copy(), "total_energy": total0,
                  "patch_grid": [(cfg.height - cfg.patch) // cfg.stride + 1,
                                 (cfg.width - cfg.patch) // cfg.stride + 1]},
    )

    def entropy(arr):
        return kernels.patch_entropy(arr, cfg.patch, cfg.stride, cfg.bins, emax)

    prev_top = None
    E_prev = E
    for t in range(1, cfg.steps + 1):
        is_frame = t % cfg.frame_every == 0
        diagnose = is_frame or t == 1
        if diagnose:
            H_before = entropy(E_prev)
        E, flows = ca_step(E_prev, cfg.K)
        assert int(E.sum()) == total0
        if np.any(exp4._border_ring(E) != 0):
            raise BorderContactError(f"energy reached the lattice border at step {t}")
        if diagnose:
            flux = patch_outward_flux(flows, cfg.patch, cfg.stride)
            S, grad_mag = exp4._frame_fields(cfg, H_before, entropy(E), flux)
            top = exp4._top_set(S, cfg.top_frac)
            if is_frame:
                result.add_row(
                    t=t,
                    mean_S=float(S.mean()),
                    grad_corr=exp4._pearson(S, grad_mag),
                    jaccard=exp4._jaccard(top, prev_top) if prev_top is not None else 1.0,
                    neighbor_corr=exp4._neighbor_corr(S),
                    total_energy=int(E.sum()),
                )
                if cfg.save_fields and field_sink is not None:
                    field_sink(t, E)
            prev_top = top
        E_prev = E
    return result


@pytest.fixture(scope="module")
def exp4_result():
    return run_exp4(FAST4, seed=0)


class TestExp4:

    def test_columns(self, exp4_result):
        assert exp4_result.columns == ["t", "mean_S", "grad_corr", "jaccard",
                                  "neighbor_corr", "total_energy"]

    def test_energy_exactly_constant(self, exp4_result):
        te = exp4_result.column("total_energy")
        assert len(set(int(v) for v in te)) == 1

    def test_jaccard_in_unit_interval(self, exp4_result):
        jc = exp4_result.column("jaccard")
        assert np.all(jc >= 0.0) and np.all(jc <= 1.0)

    def test_mean_s_nonnegative(self, exp4_result):
        assert np.all(exp4_result.column("mean_S") >= 0.0)

    def test_border_contact_aborts(self):
        cfg = Exp4Config(height=40, width=40, steps=200, radius=16.0, peak=400,
                         frame_every=10)
        with pytest.raises(BorderContactError):
            run_exp4(cfg, seed=0)

    def test_deterministic(self):
        a = run_exp4(FAST4, seed=2)
        b = run_exp4(FAST4, seed=2)
        assert a.to_csv_text() == b.to_csv_text()

    def test_outward_flux_hand_case(self):
        # lone outflow crossing the east boundary of the first 4x4 patch
        flows = np.zeros((8, 8, 8), dtype=np.int64)
        flows[4, 1, 3] = 5   # direction (0, +1) from cell (1, 3): leaves patch (0, 0)
        flows[4, 1, 2] = 7   # stays inside the 4x4 patch
        out = patch_outward_flux(flows, patch=4, stride=4)
        assert out[0, 0] == 5
        assert out[0, 1] == 0

    @pytest.mark.parametrize("shape,patch,stride", [
        ((9, 11), 3, 1),    # stride 1: overlapping patches
        ((12, 12), 4, 4),   # patch == stride: a tiling
        ((7, 9), 7, 3),     # a patch as tall as the lattice
        ((6, 6), 6, 2),     # one patch covering the whole lattice
        ((14, 11), 4, 3),   # ragged edge: (14 - 4) % 3 = (11 - 4) % 3 = 1
        ((5, 6), 1, 1),     # one-cell patches: every flow leaves
    ], ids=["stride_1", "patch_eq_stride", "patch_as_tall_as_lattice", "patch_is_lattice",
            "ragged_edge", "one_cell_patches"])
    def test_outward_flux_equals_loops(self, shape, patch, stride):
        flows = np.random.default_rng(7).integers(0, 1000, (8, *shape), dtype=np.int64)
        got = patch_outward_flux(flows, patch, stride)
        want = _patch_outward_flux_loops(flows, patch, stride, kernels.MOORE_OFFSETS)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("cfg,seed", [
        # the stored-reference config: at K = 4 cells are capped
        (Exp4Config(height=96, width=96, steps=40, radius=14.0, peak=150, K=4), 3),
        # (H - patch) % stride = 3 on both axes: the last three rows and
        # columns lie in no patch, and energy reaches column 41 of them
        (Exp4Config(height=44, width=44, steps=60, radius=9.0, eccentricity=1.0, peak=150,
                     K=4, patch=5, stride=4, frame_every=5), 0),
        (Exp4Config(height=64, width=66, steps=40, radius=9.0, peak=120, patch=5,
                     stride=5, bins=16), 1),
        (Exp4Config(height=64, width=64, steps=40, radius=9.0, peak=120, save_fields=True), 2),
    ], ids=["golden_K4", "ragged_patch_grid", "stride_eq_patch", "save_fields"])
    def test_active_window_equals_full_lattice(self, cfg, seed):
        frames, ref_frames = [], []
        got = run_exp4(cfg, seed, field_sink=lambda t, E: frames.append((t, E)))
        ref = _run_exp4_full_lattice(cfg, seed, lambda t, E: ref_frames.append((t, E)))
        assert got.to_csv_text() == ref.to_csv_text()
        assert got.metadata == ref.metadata
        assert len(frames) == len(ref_frames) == (len(got.rows) if cfg.save_fields else 0)
        for (t, E), (t_ref, E_ref) in zip(frames, ref_frames):
            assert t == t_ref and E.shape == (cfg.height, cfg.width)
            assert np.array_equal(E, E_ref)

    def test_active_window_border_contact_at_same_step(self):
        cfg = Exp4Config(height=64, width=64, steps=300, radius=12.0, peak=400, K=4)
        with pytest.raises(BorderContactError) as ref:
            _run_exp4_full_lattice(cfg, 0)
        with pytest.raises(BorderContactError) as got:
            run_exp4(cfg, 0)
        assert str(got.value) == str(ref.value)
        assert not str(ref.value).endswith("step 1")

    def test_initial_blob_is_clear_of_border(self):
        E = initial_blob(FAST4, SeededRng(1))
        assert E[0, :].sum() == 0 and E[:, 0].sum() == 0
        assert E.sum() > 0


@pytest.fixture(scope="module")
def exp3_result():
    return run_exp3(FAST3, seed=0)


class TestExp3:

    def test_columns_and_grid(self, exp3_result):
        assert exp3_result.columns == ["rho", "deltaE", "C", "chi"]
        assert exp3_result.column("rho").tolist() == list(FAST3.rho_grid)

    def test_delta_e_bounded_by_baseline(self, exp3_result):
        mse_base = exp3_result.metadata["mse_base"]
        assert np.all(exp3_result.column("deltaE") <= mse_base + 1e-12)

    def test_activity_rises_into_supercritical(self, exp3_result):
        c = exp3_result.column("C")
        assert c[-1] > c[0]

    def test_deterministic(self):
        a = run_exp3(FAST3, seed=1)
        b = run_exp3(FAST3, seed=1)
        assert a.to_csv_text() == b.to_csv_text()

    def test_grid_must_be_sorted(self):
        with pytest.raises(InvalidConfigError):
            Exp3Config(rho_grid=(1.0, 0.5))


class TestWriteJson:
    """write_json's bytes are json's own encoding of the payload's plain
    Python twin; the digests pin them only at the shipped configs."""

    def test_numpy_payload_matches_its_plain_twin(self, tmp_path):
        payload = {
            "f": np.float64(0.1), "nan": np.float64("nan"), "inf": np.float64("inf"),
            "ninf": -np.float64("inf"), "f32": np.float32(0.5), "i": np.int64(-7),
            "b": np.bool_(True), "zero_d": np.array(2.5), "grid": np.arange(6.0).reshape(2, 3) / 3,
            "ints": np.arange(3), "pair": (np.int64(1), 2.0),
            "nested": {"flags": np.array([True, False]), "z": [np.float64(1e-300), None, "s"]},
        }
        twin = {
            "f": 0.1, "nan": float("nan"), "inf": float("inf"), "ninf": float("-inf"),
            "f32": 0.5, "i": -7, "b": True, "zero_d": 2.5,
            "grid": [[0.0, 1 / 3, 2 / 3], [1.0, 4 / 3, 5 / 3]], "ints": [0, 1, 2], "pair": [1, 2.0],
            "nested": {"flags": [True, False], "z": [1e-300, None, "s"]},
        }
        path = tmp_path / "p.json"
        write_json(path, payload)
        assert path.read_text() == json.dumps(twin, sort_keys=True, indent=2) + "\n"

    def test_unsupported_object_raises(self, tmp_path):
        with pytest.raises(TypeError, match="set"):
            write_json(tmp_path / "p.json", {"s": {1, 2}})
