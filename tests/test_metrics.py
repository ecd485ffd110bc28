import dataclasses

import numpy as np
import pytest

from metrilab import metrics, numerics
from metrilab.cli import _checks_rows
from metrilab.errors import (
    ChannelIrregularError,
    InsufficientDataError,
    UndefinedConsciousnessError,
    UndefinedIntelligenceError,
)
from metrilab.metrics import (
    SafetyLimits,
    biased_walk_currents,
    classical_bound_check,
    consciousness,
    intelligence,
    linear_gaussian_channel,
    logistic_mean_channel,
    report_fluxes,
    safety_monitor,
    trace_bound_check,
    tur_check,
)
from metrilab.config import parse_config
from metrilab.numerics import SeededRng


class TestScalarMeasures:
    def test_unit_ratio(self):
        assert intelligence(1.0, 1.0) == 1.0

    def test_zero_work(self):
        assert intelligence(0.0, 2.0) == 0.0

    def test_zero_information_undefined(self):
        with pytest.raises(UndefinedIntelligenceError):
            intelligence(1.0, 0.0)

    def test_homogeneity(self):
        for c in (0.5, 3.0, 17.0):
            assert intelligence(c * 2.0, c * 4.0) == pytest.approx(intelligence(2.0, 4.0))
            assert consciousness(c * 2.0, c * 4.0) == pytest.approx(consciousness(2.0, 4.0))

    def test_consciousness_values_and_errors(self):
        assert consciousness(np.log(2), np.log(2)) == 1.0
        # doubling irrelevant preserved structure halves the ratio
        assert consciousness(1.0, 2 * np.log(2)) == pytest.approx(0.5 * consciousness(1.0, np.log(2)))
        with pytest.raises(UndefinedConsciousnessError):
            consciousness(1.0, 0.0)

class TestTUR:
    def test_bound_holds_on_seeded_ensembles(self):
        for i in range(25):
            j, sigma = biased_walk_currents(0.06, 0.04, 1000, 2000, SeededRng(11).derive(i))
            assert tur_check(j, sigma)["satisfied"]

    def test_empirical_moments_match_analytic_oracle(self):
        f, b, n = 0.06, 0.04, 1000
        j, sigma = biased_walk_currents(f, b, n, 40000, SeededRng(5))
        assert j.mean() == pytest.approx(n * (f - b), rel=0.02)
        assert j.var() == pytest.approx(n * (f + b - (f - b) ** 2), rel=0.03)
        assert sigma == pytest.approx(n * (f - b) * np.log(f / b))

    def test_symmetric_walk_vacuous(self):
        # zero entropy production: rhs is infinite and the bound is vacuous
        j, sigma = biased_walk_currents(0.05, 0.05, 400, 1000, SeededRng(6))
        r = tur_check(j, sigma)
        assert sigma == 0.0 and r["satisfied"]
        # an exactly-zero-mean ensemble flags the infinite ratio
        r2 = tur_check(np.tile([1.0, -1.0], 100), 1.0)
        assert np.isinf(r2["lhs"]) and r2["satisfied"]

    def test_near_equilibrium_saturation_within_factor_two(self):
        ratio = 1.01
        f = 0.1 * ratio / (1 + ratio) * 2
        b = 0.2 - f
        j, sigma = biased_walk_currents(f, b, 10000, 10000, SeededRng(7))
        r = tur_check(j, sigma)
        assert 0.5 <= r["lhs"] / r["rhs"] <= 2.0


def _tur_check_fresh(current_samples, sigma_T):
    # tur_check as it was before its bootstrap index was cached: the index is
    # drawn afresh on every call
    j = np.asarray(current_samples, dtype=float)
    mean = j.mean()
    var = j.var(ddof=1)
    rhs = np.inf if sigma_T <= 0 else 2.0 / sigma_T
    if abs(mean) < 1e-12 * max(j.std(), 1e-300):
        return {"lhs": np.inf, "rhs": rhs, "satisfied": True, "slack": np.inf,
                "eps_stat": 0.0, "mean_zero": True}
    lhs = var / mean**2
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xB007)))
    idx = gen.integers(0, j.size, size=(metrics.TUR_BOOTSTRAP, j.size))
    boots = j[idx]
    bl = boots.var(axis=1, ddof=1) / boots.mean(axis=1) ** 2
    se = float(bl.std(ddof=1))
    eps = 3.0 * se / rhs if np.isfinite(rhs) and rhs > 0 else 0.0
    satisfied = bool(lhs >= rhs * (1.0 - eps)) if np.isfinite(rhs) else True
    return {"lhs": float(lhs), "rhs": float(rhs), "satisfied": satisfied,
            "slack": float(lhs - rhs), "eps_stat": float(eps), "mean_zero": False}


class TestTURBootstrapCache:
    def test_cached_index_equals_fresh_draws(self):
        # interleaved sizes evict and redraw the one cached index
        for k, walkers in enumerate((100, 2000, 10000, 2000, 100, 10000, 100)):
            j, sigma = biased_walk_currents(0.06, 0.04, 300, walkers, SeededRng(21).derive(k))
            assert tur_check(j, sigma) == _tur_check_fresh(j, sigma)

    def test_cached_index_is_read_only(self):
        # The compact index equals a fresh int64 draw at sizes that cross
        # uint8 -> uint16 (above 256) and uint16 -> uint32 (above 65 536);
        # 10 000 is the near-equilibrium row's size. The oracle is drawn 50
        # rows at a time from one generator, which continues one stream.
        for size, dtype in ((100, np.uint8), (2000, np.uint16), (10000, np.uint16),
                            (65536, np.uint16), (65537, np.uint32)):
            idx = metrics._bootstrap_index(size)
            assert idx.shape == (metrics.TUR_BOOTSTRAP, size)
            assert idx.dtype == dtype
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0xB007)))
            for r in range(0, metrics.TUR_BOOTSTRAP, 50):
                assert np.array_equal(idx[r : r + 50], gen.integers(0, size, size=(50, size)))
            assert not idx.flags.writeable
            with pytest.raises(ValueError):
                idx[0, 0] = 1
        metrics._bootstrap_index.cache_clear()  # the last index is 52 MB

    def test_checks_rows_keep_order_and_values_on_false_alarm_seed(self):
        # seed 5 fails one tur_walk row at the default [checks] config; the
        # near-equilibrium row runs first but is still listed after the walks
        cfg = parse_config(None)
        cc = dataclasses.replace(cfg.checks, trace_random_channels=0, tight_snrs=(0.1,),
                                 classical_trials=2, classical_T=0.1)
        rows = _checks_rows(dataclasses.replace(cfg, checks=cc), seed=5)
        expected = []
        for i in range(cc.tur_ensembles):
            r = _tur_check_fresh(*biased_walk_currents(
                cc.tur_forward, cc.tur_backward, cc.tur_steps, cc.tur_walkers,
                SeededRng(5).derive(i)))
            expected.append((f"tur_walk_{i:03d}", r["lhs"], r["rhs"], r["satisfied"], r["slack"]))
        hop = 0.5 * (cc.tur_forward + cc.tur_backward)
        f_eq = hop * cc.near_eq_ratio / (1.0 + cc.near_eq_ratio) * 2.0
        r = _tur_check_fresh(*biased_walk_currents(
            f_eq, 2.0 * hop - f_eq, cc.tur_steps * 10, cc.tur_walkers * 5,
            SeededRng(5).derive(9000)))
        ok = r["satisfied"] and 0.5 <= r["lhs"] / r["rhs"] <= 2.0
        expected.append(("tur_near_equilibrium", r["lhs"], r["rhs"], ok, r["slack"]))
        got = [(row["name"], row["lhs"], row["rhs"], row["satisfied"], row["slack"])
               for row in rows[: cc.tur_ensembles + 1]]
        assert got == expected
        assert sum(not row[3] for row in got) == 1


def _bootstrap_ratios_whole(j):
    # tur_check's resample ratios as they were before the blocks: one
    # (TUR_BOOTSTRAP, size) gather
    boots = j[metrics._bootstrap_index(j.size)]
    return boots.var(axis=1, ddof=1) / boots.mean(axis=1) ** 2


class TestBlockedBootstrap:
    # At the default budget 100 walkers fit one block, 1600 split the 200
    # resamples into 5 blocks of 40, and 2000 (32-row blocks) and 10 000
    # (6-row blocks) leave a short last block.
    @pytest.mark.parametrize("walkers", (100, 1600, 2000, 10000))
    def test_blocks_equal_one_gather(self, walkers):
        j, sigma = biased_walk_currents(0.06, 0.04, 300, walkers, SeededRng(31).derive(walkers))
        assert np.array_equal(metrics._bootstrap_ratios(j), _bootstrap_ratios_whole(j))
        assert tur_check(j, sigma) == _tur_check_fresh(j, sigma)

    @pytest.mark.parametrize("rows", (1, 3, 7, 199))
    def test_any_block_height_equals_one_gather(self, monkeypatch, rows):
        j, _ = biased_walk_currents(0.06, 0.04, 300, 500, SeededRng(32))
        monkeypatch.setattr(metrics, "BLOCK_ELEMENTS", rows * j.size)
        assert np.array_equal(metrics._bootstrap_ratios(j), _bootstrap_ratios_whole(j))


@pytest.fixture
def one_blas_thread():
    # The whole (atoms, y) mixture below runs threaded in OpenBLAS from a few
    # hundred atoms on, and a threaded gemv sums in another order; the byte
    # contract is kept on one BLAS thread, as the CLI runs.
    with numerics.one_blas_thread():
        yield


def _mi_whole(channel, z_atoms, weights):
    # mutual_information_quadrature as it was before the blocks: every
    # (atoms, y) array whole
    z = np.asarray(z_atoms, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = channel.mean_fn(z)
    y = np.linspace(float(m.min() - metrics.MI_PAD * channel.sigma),
                    float(m.max() + metrics.MI_PAD * channel.sigma), metrics.MI_Y_POINTS)
    ll = channel.log_likelihood(y[None, :], z[:, None])
    p = np.exp(ll)
    pmix = w @ p
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.where(p > 0, p * (ll - np.log(np.maximum(pmix, 1e-300))[None, :]), 0.0)
    kl = np.trapezoid(integrand, y, axis=1)
    return float(w @ kl), kl


class TestBlockedQuadrature:
    CHANNELS = {
        "linear": linear_gaussian_channel(0.8),
        "logistic": logistic_mean_channel(2.0, 1.5, 0.2, 0.6),
        "corrupted": dataclasses.replace(logistic_mean_channel(2.0, 1.5, 0.2, 0.6), score_scale=0.3),
    }

    # At the default budget the KL stage takes 16 atoms per block, so 50, 200
    # and 201 atoms leave a short last block. The mixture takes y whole at 2
    # atoms and in columns of 3840 points at 17, 1280 at 50 and 320 at 200
    # and 201.
    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("atoms", (2, 17, 50, 200, 201))
    @pytest.mark.parametrize("channel", sorted(CHANNELS))
    def test_blocks_equal_whole_arrays(self, channel, atoms):
        chan = self.CHANNELS[channel]
        gen = SeededRng(33).derive(atoms).generator()
        z = gen.standard_normal(atoms)
        w = gen.dirichlet(np.ones(atoms))
        mi, kl = metrics.mutual_information_quadrature(chan, z, w)
        mi_ref, kl_ref = _mi_whole(chan, z, w)
        assert mi == mi_ref
        assert np.array_equal(kl, kl_ref)

    # mixture widths of 192 and 1600 points at 17 atoms, 64 and 128 at 201
    @pytest.mark.usefixtures("one_blas_thread")
    @pytest.mark.parametrize("rows", (1, 7))
    def test_any_block_height_equals_whole_arrays(self, monkeypatch, rows):
        monkeypatch.setattr(metrics, "BLOCK_ELEMENTS", rows * metrics.MI_Y_POINTS)
        chan = self.CHANNELS["logistic"]
        for atoms in (17, 201):
            z = SeededRng(34).generator().standard_normal(atoms)
            w = np.full(atoms, 1.0 / atoms)
            mi, kl = metrics.mutual_information_quadrature(chan, z, w)
            mi_ref, kl_ref = _mi_whole(chan, z, w)
            assert mi == mi_ref and np.array_equal(kl, kl_ref)


class TestTraceBound:
    def test_linear_gaussian_against_closed_form(self):
        tau, sig = 1.0, 1.0
        chan = linear_gaussian_channel(sig)
        z = tau * SeededRng(2).generator().standard_normal(400)
        r = trace_bound_check(chan, z)
        snr_hat = z.var()
        assert r["lhs"] == pytest.approx(0.5 * np.log(1 + snr_hat / sig**2), abs=2e-3)
        assert r["rhs"] == pytest.approx(np.mean((z[:, None] - z[None, :]) ** 2) / 2 / sig**2, rel=1e-9)
        assert r["satisfied"]

    def test_tightness_approaches_one_at_low_snr(self):
        chan = linear_gaussian_channel(1.0)
        gaps = []
        for snr in (0.1, 0.01, 0.001):
            z = np.sqrt(snr) * SeededRng(3).generator().standard_normal(400)
            r = trace_bound_check(chan, z)
            assert r["satisfied"]
            gaps.append(abs(r["tightness"] - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-3

    def test_zero_spread_prior(self):
        r = trace_bound_check(linear_gaussian_channel(1.0), np.zeros(10))
        assert r["lhs"] == 0.0 and r["rhs"] == 0.0 and r["satisfied"]

    def test_hundred_randomized_instances_all_satisfied(self):
        gen = SeededRng(40).generator()
        for _ in range(100):
            chan = logistic_mean_channel(level=gen.uniform(0.5, 3.0), slope=gen.uniform(0.5, 3.0),
                                         center=gen.uniform(-1.0, 1.0), sigma=gen.uniform(0.3, 1.5))
            atoms = gen.uniform(-2.0, 2.0, size=int(gen.integers(2, 6)))
            assert trace_bound_check(chan, atoms)["satisfied"]

    def test_random_smooth_channels_hold_with_independent_mi_oracle(self):
        gen = SeededRng(4).generator()
        for _ in range(20):
            chan = logistic_mean_channel(level=gen.uniform(0.5, 3.0), slope=gen.uniform(0.5, 3.0),
                                         center=gen.uniform(-1.0, 1.0), sigma=gen.uniform(0.3, 1.5))
            atoms = np.array([gen.uniform(-2.0, 0.0), gen.uniform(0.0, 2.0)])
            r = trace_bound_check(chan, atoms)
            assert r["satisfied"]
            # Gauss-Hermite oracle: I = sum_i w_i E_{y|z_i}[ln p(y|z_i) - ln p_mix]
            nodes, wts = np.polynomial.hermite_e.hermegauss(101)
            mi = 0.0
            for zi in atoms:
                y = chan.mean_fn(zi) + chan.sigma * nodes
                ll_i = chan.log_likelihood(y, zi)
                mix = 0.5 * np.exp(chan.log_likelihood(y, atoms[0])) + \
                      0.5 * np.exp(chan.log_likelihood(y, atoms[1]))
                mi += 0.5 * np.sum(wts / np.sqrt(2 * np.pi) * (ll_i - np.log(mix)))
            assert r["lhs"] == pytest.approx(mi, abs=1e-4)

    def test_irregular_channel_raises(self):
        chan = logistic_mean_channel(1.0, 1.0, 0.0, 1.0)
        chan.dmean_fn = lambda z: np.full_like(np.asarray(z, dtype=float), np.inf)
        with pytest.raises(ChannelIrregularError):
            trace_bound_check(chan, np.array([-1.0, 1.0]))


class TestClassicalBound:
    def test_synthetic_reversible_limit_equality(self):
        t = np.linspace(0.0, 1.0, 11)
        w = np.full_like(t, 0.7)
        fluxes = {"times": t, "w_dot": w, "i_irr_dot": w / 1.0, "f_sys_dot": 0 * t, "s_prod_dot": 0 * t}
        r = classical_bound_check(fluxes, T_env=1.0)
        assert r["satisfied"] and abs(r["slack"]) < 1e-12

    def test_quasistatic_bitflip_both_sides_near_zero(self):
        from metrilab.cce import DoubleWellParams, simulate_bitflip

        rep = simulate_bitflip(DoubleWellParams(), 40.0, 400, SeededRng(8))
        fluxes, T_env = report_fluxes(rep)
        r = classical_bound_check(fluxes, T_env, stat_tol=3 * rep.work_std / 40.0)
        assert r["satisfied"]
        assert abs(r["lhs"]) < 0.1 and abs(r["rhs"]) < 0.1

    def test_erasure_slack_nonnegative(self):
        from metrilab.cce import DoubleWellParams, simulate_erasure

        rep = simulate_erasure(DoubleWellParams(), 20.0, 600, SeededRng(9))
        fluxes, T_env = report_fluxes(rep)
        r = classical_bound_check(fluxes, T_env, stat_tol=3 * rep.work_std / 20.0)
        assert r["satisfied"]
        assert r["slack"] > -3 * rep.work_std / 20.0

    def test_missing_channel_raises(self):
        with pytest.raises(InsufficientDataError):
            classical_bound_check({"times": [0, 1], "w_dot": [0, 0]}, T_env=1.0)


class TestOneResultForm:
    """Every bound check returns lhs, rhs, satisfied and slack, the slack being
    the margin by which its bound holds: lhs - rhs for the fluctuation bound
    (lhs >= rhs), rhs - lhs for the trace and power bounds (lhs <= rhs)."""

    @pytest.mark.parametrize("case", ["tur_holds", "tur_fails", "trace_holds", "trace_fails",
                                      "power_holds", "power_fails"])
    def test_keys_and_slack_sign(self, case):
        kind, verdict = case.split("_")
        holds = verdict == "holds"
        if kind == "tur":
            j, sigma = biased_walk_currents(0.06, 0.04, 1000, 2000, SeededRng(1))
            r = tur_check(j, 10 * sigma if holds else sigma / 10)
            margin = r["lhs"] - r["rhs"]
        elif kind == "trace":
            chan = linear_gaussian_channel(1.0)
            chan.score_scale = 1.0 if holds else 0.3
            r = trace_bound_check(chan, np.array([-1.0, 1.0]))
            margin = r["rhs"] - r["lhs"]
        else:
            t = np.linspace(0.0, 1.0, 11)
            fluxes = {"times": t, "w_dot": np.full_like(t, 0.5 if holds else 2.0),
                      "i_irr_dot": np.ones_like(t), "f_sys_dot": 0 * t, "s_prod_dot": 0 * t}
            r = classical_bound_check(fluxes, T_env=1.0)
            margin = r["rhs"] - r["lhs"]
        assert {"lhs", "rhs", "satisfied", "slack"} <= set(r)
        assert r["slack"] == margin
        assert r["satisfied"] == holds == (r["slack"] > 0)


def _monitor_loop(flux_series, limits, window=100):
    """The per-sample safety monitor: each sample's limits checked in turn,
    each trailing window read from the same two cumulative sums."""
    t = np.asarray(flux_series["times"], dtype=float)
    w = np.asarray(flux_series["w_dot"], dtype=float)
    i = np.asarray(flux_series["i_irr_dot"], dtype=float)
    sp = np.asarray(flux_series["s_prod_dot"], dtype=float)
    f = np.asarray(flux_series.get("f_sys_dot", np.zeros_like(t)), dtype=float)
    counts = {"power": 0, "info_rate": 0, "entropy_rate": 0, "free_energy_rate": 0, "chi": 0}
    first = None
    cw = np.concatenate([[0.0], np.cumsum(w)])
    ci = np.concatenate([[0.0], np.cumsum(i)])
    for k in range(len(t)):
        bad = []
        if w[k] > limits.P_max:
            bad.append("power")
        if i[k] > limits.I_dot_max:
            bad.append("info_rate")
        if sp[k] < 0 or sp[k] > limits.s_crit:
            bad.append("entropy_rate")
        if abs(f[k]) > limits.f_max:
            bad.append("free_energy_rate")
        lo = max(0, k + 1 - window)
        iw = ci[k + 1] - ci[lo]
        if iw > 0:
            chi = (cw[k + 1] - cw[lo]) / iw
            if not limits.chi_range[0] <= chi <= limits.chi_range[1]:
                bad.append("chi")
        for b in bad:
            counts[b] += 1
        if bad and first is None:
            first = float(t[k])
    return first, counts


class TestSafetyMonitorAgainstLoop:
    def test_random_series_match_the_per_sample_loop(self):
        # Information flow is zero on about half the samples, so short windows
        # often carry none; NaN lands in every channel of some series. Half the
        # series hold multiples of 0.5, so samples and windowed ratios land
        # exactly on their limits.
        gen = SeededRng(77).generator()
        zero_windows = nan_samples = chi_flags = 0
        for _ in range(400):
            n = int(gen.integers(0, 60))
            window = int(gen.integers(1, 12))
            if gen.random() < 0.5:
                def draw(lo, hi, size=None):
                    return 0.5 * gen.integers(2 * lo, 2 * hi + 1, size)
            else:
                draw = gen.uniform
            series = {"times": np.cumsum(gen.uniform(0.01, 0.1, n)),
                      "w_dot": draw(-1, 2, n) * (gen.random(n) < 0.8),
                      "i_irr_dot": draw(0, 2, n) * (gen.random(n) < 0.5),
                      "s_prod_dot": draw(-1, 3, n),
                      "f_sys_dot": draw(-2, 2, n)}
            if gen.random() < 0.3:
                for key in ("w_dot", "i_irr_dot", "s_prod_dot", "f_sys_dot"):
                    series[key][gen.random(n) < 0.03] = np.nan
            lo = draw(-1, 1)
            limits = SafetyLimits(chi_range=(lo, lo + draw(0.5, 3)),
                                  P_max=draw(0.5, 3), I_dot_max=draw(0.5, 3),
                                  s_crit=draw(0.5, 3), f_max=draw(0.5, 3))
            rep = safety_monitor(series, limits, window=window)
            first, counts = _monitor_loop(series, limits, window=window)
            assert rep.first_violation_time == first
            assert list(rep.counts.items()) == list(counts.items())
            assert all(type(c) is int for c in rep.counts.values())
            assert rep.n_samples == n
            ci = np.concatenate([[0.0], np.cumsum(series["i_irr_dot"])])
            ends = np.arange(1, n + 1)
            zero_windows += int(np.sum(ci[ends] == ci[np.maximum(0, ends - window)]))
            nan_samples += int(sum(np.isnan(series[k]).sum() for k in series))
            chi_flags += counts["chi"]
        assert zero_windows > 1000 and nan_samples > 100 and chi_flags > 1000


class TestSafetyMonitor:
    def flat(self, n=50, **over):
        base = {"times": np.arange(n) * 0.1, "w_dot": np.zeros(n), "i_irr_dot": np.zeros(n),
                "s_prod_dot": np.zeros(n), "f_sys_dot": np.zeros(n)}
        base.update(over)
        return base

    def test_all_zero_no_violations(self):
        rep = safety_monitor(self.flat(), SafetyLimits(P_max=1, I_dot_max=1, s_crit=1, f_max=1))
        assert rep.total == 0 and rep.first_violation_time is None

    def test_single_power_spike(self):
        w = np.zeros(100)
        w[50] = 2.0
        rep = safety_monitor(self.flat(100, w_dot=w), SafetyLimits(P_max=1.0))
        assert rep.counts["power"] == 1 and rep.total == 1
        assert rep.first_violation_time == pytest.approx(5.0)

    def test_constant_overflow_counts_every_sample(self):
        # constant information rate 10 against a limit of 1 flags all samples
        n = 200
        rep = safety_monitor(self.flat(n, i_irr_dot=np.full(n, 10.0)),
                             SafetyLimits(I_dot_max=1.0))
        assert rep.counts["info_rate"] == n

    def test_monotone_in_limits(self):
        gen = SeededRng(10).generator()
        series = self.flat(200, w_dot=np.abs(gen.standard_normal(200)))
        counts = [safety_monitor(series, SafetyLimits(P_max=p)).counts["power"]
                  for p in (0.5, 1.0, 2.0, 4.0)]
        assert counts == sorted(counts, reverse=True)

    def test_chi_window_violation(self):
        n = 150
        series = self.flat(n, w_dot=np.full(n, 5.0), i_irr_dot=np.full(n, 1.0))
        rep = safety_monitor(series, SafetyLimits(chi_range=(0.0, 2.0)), window=10)
        assert rep.counts["chi"] == n
