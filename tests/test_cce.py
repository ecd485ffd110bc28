import numpy as np
import pytest

from metrilab import cce, kernels
from metrilab.cce import (
    BOUNDARY,
    DoubleWellParams,
    EncodingSpace,
    IrreversibilityLedger,
    encoding_path_length,
    label_jumps,
    landauer_bound,
    make_double_well_space,
    merge_entropy,
    preserved_information,
    simulate_bitflip,
    simulate_erasure,
)
from metrilab.circuits import FLIPFLOP_BAND, flipflop_space
from metrilab.errors import IntegrationDivergedError, InvalidConfigError
from metrilab.numerics import SeededRng, Trajectory

OLD_BOUNDARY = "__boundary__"
LOCK_RAD, DRIFT_RAD = 0.5, 2.0  # a lock/drift label: asymmetric band, string labels


def band_closure(lo, hi, below, above):
    # a classifier closure as each encoding once wrote it: strict comparisons
    # against the band edges, the band and NaN reading the boundary sentinel
    def classify(v):
        if v < lo:
            return below
        if v > hi:
            return above
        return OLD_BOUNDARY

    return classify


def path_length_loop(times, values, classify, alpha):
    # the per-sample hold-previous loop encoding_path_length used to run
    ledger = IrreversibilityLedger()
    current, count = None, 0
    for t, v in zip(times, values):
        lab = classify(float(v))
        if lab == OLD_BOUNDARY:
            continue
        if current is None:
            current = lab
        elif lab != current:
            ledger.append(t, "jump", alpha * np.log(2.0), (current,), (lab,))
            current, count = lab, count + 1
    return count, ledger


class TestMergeEntropy:
    def test_two_equiprobable_is_ln2(self):
        assert merge_entropy([0.5, 0.5], 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_degenerate_distribution_zero(self):
        assert merge_entropy([1.0, 0.0]) == 0.0

    def test_skewed_hand_value(self):
        # -(0.25 ln 0.25 + 0.75 ln 0.75) = 0.5623...
        assert merge_entropy([0.25, 0.75], 1.0) == pytest.approx(0.5623, abs=1e-4)

    def test_alpha_scaling_and_positivity(self):
        gen = SeededRng(0).generator()
        for _ in range(20):
            p = gen.dirichlet(np.ones(4))
            s = merge_entropy(p, 1.0)
            assert s >= 0.0
            assert merge_entropy(p, 2.5) == pytest.approx(2.5 * s)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            merge_entropy([0.2, 0.2])


def _double_well_band():
    return 0.05 * 2.0 * np.sqrt(2.0 / 2.0)


def _spaces():
    """(space, old closure fed the same scalar coordinate) for each encoding."""
    band = _double_well_band()
    return [
        (make_double_well_space(), band_closure(-band, band, 0, 1)),
        (flipflop_space(), band_closure(-FLIPFLOP_BAND, FLIPFLOP_BAND, 0, 1)),
        (EncodingSpace(("lock", "drift"), LOCK_RAD, DRIFT_RAD),
         band_closure(LOCK_RAD, DRIFT_RAD, "lock", "drift")),
    ]


class TestClassify:
    @pytest.mark.parametrize("which", range(3), ids=["double_well", "flipflop", "lock"])
    def test_matches_old_closure_at_edges(self, which):
        space, old = _spaces()[which]
        lo, hi = space.lo, space.hi
        probes = [lo, hi, -lo, -hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                  0.5 * (lo + hi), np.inf, -np.inf, np.nan, 0.0, -0.0]
        got = space.classify(probes)
        assert got.shape == (len(probes),)
        for v, idx in zip(probes, got.tolist()):
            want = old(v)
            assert (idx == BOUNDARY) if want == OLD_BOUNDARY else (space.labels[idx] == want), v
            assert int(space.classify(v)) == idx

    def test_boundary_is_minus_one(self):
        assert BOUNDARY == -1
        assert int(make_double_well_space().classify(np.nan)) == -1


class TestEncodingSpace:
    def test_rejects_three_labels(self):
        with pytest.raises(ValueError):
            EncodingSpace((0, 1, 2), -0.1, 0.1)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            EncodingSpace((0, 1), 0.2, 0.1)
        with pytest.raises(ValueError):
            EncodingSpace((0, 1), np.nan, 0.1)

    @pytest.mark.parametrize("priors", [(0.7, 0.7), (-0.5, 1.5), (0.5, 0.25, 0.25)])
    def test_rejects_bad_priors(self, priors):
        with pytest.raises(ValueError):
            EncodingSpace((0, 1), -0.1, 0.1, priors=priors)

    def test_empty_band_allowed(self):
        space = EncodingSpace((0, 1), 0.0, 0.0)
        assert space.classify([-1e-300, 0.0, 1e-300]).tolist() == [0, BOUNDARY, 1]
        assert space.priors.tolist() == [0.5, 0.5]


class TestLabelJumps:
    def test_hold_previous_from_start(self):
        held, jump = label_jumps([BOUNDARY, 1, BOUNDARY, 0, 0, BOUNDARY, 1])
        assert held.tolist() == [BOUNDARY, 1, 1, 0, 0, 0, 1]
        assert jump.tolist() == [False, False, False, True, False, False, True]

    def test_start_label_counts_first_change(self):
        _, jump = label_jumps([BOUNDARY, 1, 1], start=0)
        assert jump.tolist() == [False, True, False]

    def test_columns_are_independent(self):
        gen = SeededRng(4).generator()
        idx = gen.integers(-1, 2, size=(50, 3, 4))
        held, jump = label_jumps(idx, start=1)
        for i in range(3):
            for j in range(4):
                h, m = label_jumps(idx[:, i, j], start=1)
                assert np.array_equal(held[:, i, j], h) and np.array_equal(jump[:, i, j], m)


class TestPathLength:
    def traj(self, values, dt=0.1):
        return Trajectory(dt * np.arange(len(values)), np.asarray(values, dtype=float)[:, None])

    def test_constant_label_zero(self):
        space = make_double_well_space()
        count, ledger = encoding_path_length(self.traj([-1.0] * 10), space)
        assert count == 0 and len(ledger) == 0

    def test_one_crossing(self):
        space = make_double_well_space()
        count, ledger = encoding_path_length(self.traj([-1, -1, 1, 1]), space)
        assert count == 1
        assert ledger.entries[0].kind == "jump"

    def test_boundary_band_hysteresis(self):
        # chatter inside the band does not create jumps
        space = make_double_well_space()
        count, _ = encoding_path_length(self.traj([-1, -0.01, 0.02, -0.03, -1, -1]), space)
        assert count == 0

    def test_resampling_invariance(self):
        space = make_double_well_space()
        vals = [-1, -1, 1, -1, 1, 1]
        c1, _ = encoding_path_length(self.traj(vals), space)
        c2, _ = encoding_path_length(self.traj(np.repeat(vals, 3)), space)
        assert c1 == c2

    def assert_matches_loop(self, space, old, pool, spread, seeds):
        # random runs drawn from `pool`, a fifth of the samples jittered by `spread`
        for seed in seeds:
            gen = SeededRng(seed).generator()
            n = int(gen.integers(1, 200))
            values = np.repeat(pool[gen.integers(0, len(pool), n)], gen.integers(1, 4, n))
            values = values + np.where(gen.uniform(size=len(values)) < 0.2,
                                       gen.normal(0.0, spread, len(values)), 0.0)
            traj = self.traj(values, dt=0.01)
            count, ledger = encoding_path_length(traj, space)
            ref_count, ref = path_length_loop(traj.times, values, old, space.alpha)
            assert count == ref_count == len(ledger), seed
            assert ledger.entries == ref.entries, seed

    def test_matches_per_sample_loop(self):
        # band chatter: runs of well states, band states, NaN and infinities
        band = _double_well_band()
        pool = np.array([-1.0, 1.0, -band, band, 0.0, 0.5 * band, -2 * band, 2 * band,
                         np.nan, np.inf, -np.inf])
        self.assert_matches_loop(make_double_well_space(alpha=1.7),
                                 band_closure(-band, band, 0, 1), pool, band, range(300))

    def test_string_labels_match_per_sample_loop(self):
        # the lock/drift space: the ledger carries string labels, and the band
        # [LOCK_RAD, DRIFT_RAD] does not straddle zero
        pool = np.array([0.1, LOCK_RAD, 1.2, DRIFT_RAD, 3.5, np.nan, np.inf, -np.inf])
        self.assert_matches_loop(EncodingSpace(("lock", "drift"), LOCK_RAD, DRIFT_RAD, alpha=0.6),
                                 band_closure(LOCK_RAD, DRIFT_RAD, "lock", "drift"), pool, 0.5,
                                 range(100))

    def test_ledger_cumulative_is_sum(self):
        space = make_double_well_space()
        _, ledger = encoding_path_length(self.traj([-1, 1, -1, 1]), space)
        assert ledger.cumulative_entropy() == pytest.approx(
            sum(e.entropy_nats for e in ledger.entries))


class TestPreservedInformation:
    def test_no_merges_two_labels(self):
        space = make_double_well_space()
        assert preserved_information(IrreversibilityLedger(), space, (0.0, 10.0)) == pytest.approx(np.log(2))

    def test_all_merged_zero(self):
        space = make_double_well_space()
        ledger = IrreversibilityLedger()
        ledger.append(5.0, "merge", np.log(2), (0, 1), (1,))
        assert preserved_information(ledger, space, (0.0, 10.0)) == 0.0

    def test_merge_outside_horizon_ignored(self):
        space = make_double_well_space()
        ledger = IrreversibilityLedger()
        ledger.append(20.0, "merge", np.log(2), (0, 1), (1,))
        assert preserved_information(ledger, space, (0.0, 10.0)) == pytest.approx(np.log(2))


class TestLedger:
    def test_times_nondecreasing(self):
        ledger = IrreversibilityLedger()
        ledger.append(1.0, "jump", 0.0, (0,), (1,))
        with pytest.raises(ValueError):
            ledger.append(0.5, "jump", 0.0, (1,), (0,))

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError):
            IrreversibilityLedger().append(0.0, "merge", -0.1, (0, 1), (1,))


@pytest.fixture(scope="module")
def default_params():
    return DoubleWellParams()


class TestBitFlip:
    @pytest.mark.parametrize("simulate", [simulate_bitflip, simulate_erasure], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("trials", [-1, 0, 1])
    def test_single_trial_invalid(self, default_params, simulate, trials):
        # the work and heat spreads use ddof = 1, which one trial cannot give;
        # the check comes before any array is sized by `trials`
        with pytest.raises(InvalidConfigError, match="trials must be >= 2"):
            simulate(default_params, 1.0, trials, SeededRng(0))

    def test_untilted_never_flips(self):
        # escape requires hopping a 10 kT barrier: essentially never happens
        p = DoubleWellParams(C_max=0.0, D=0.1)
        rep = simulate_bitflip(p, 10.0, 300, SeededRng(1))
        assert rep.success_prob < 0.02

    def test_first_law_identity(self, default_params):
        rep = simulate_bitflip(default_params, 10.0, 300, SeededRng(2))
        sigma = 3 * np.sqrt(rep.work_std**2 + rep.heat_std**2) + 1e-9
        assert abs(rep.first_law_residual()) < sigma

    def test_dissipated_work_nonincreasing_over_doublings(self, default_params):
        reps = [simulate_bitflip(default_params, T, 600, SeededRng(3).derive(i))
                for i, T in enumerate((10.0, 20.0, 40.0, 80.0))]
        for a, b in zip(reps, reps[1:]):
            two_sigma = 2 * np.hypot(a.work_std, b.work_std)
            assert b.dissipated_work <= a.dissipated_work + two_sigma

    def test_long_protocol_flips_reliably(self, default_params):
        rep = simulate_bitflip(default_params, 40.0, 300, SeededRng(4))
        assert rep.success_prob > 0.99

    def test_sub_spinodal_quasistatic_trend(self):
        # with the tilt kept below the spinodal the protocol is reversible in
        # the long-T limit; dissipation decreases monotonically with T
        p = DoubleWellParams(C_max=1.2)
        reps = [simulate_bitflip(p, T, 400, SeededRng(5).derive(i))
                for i, T in enumerate((40.0, 80.0, 160.0))]
        diss = [r.dissipated_work for r in reps]
        assert diss[1] < diss[0] and diss[2] < diss[1]
        assert reps[-1].success_prob > 0.99

    @pytest.mark.xfail(reason="quasistatic convergence is limited by the inter-well "
                              "hopping time, not the intra-well relaxation; at barrier "
                              "4 kT the dissipation plateau within desk-scale protocol "
                              "durations sits at the kT scale, far above 0.1 kT",
                       strict=True)
    def test_quasistatic_dissipation_below_tenth_kT(self, default_params):
        rep = simulate_bitflip(default_params, 160.0, 400, SeededRng(6))
        assert rep.dissipated_work < 0.1 * default_params.kT

    def test_collapsed_far_ensemble_keeps_numpys_widened_range(self):
        # no tilt, and noise below the state's resolution near x = -1e5: every
        # snapshot is one value and lo + 1e-12 rounds back to lo. numpy widens
        # that empty range by 0.5 each way, so 128 finite bins still fit
        params = DoubleWellParams(a=1e-10, D=1e-25, C_max=0.0)
        rep = simulate_bitflip(params, 1.0, 20, SeededRng(0))
        assert np.ptp(rep.per_trial["final_state"]) == 0.0
        assert rep.series["s_sys"] == pytest.approx(np.log(1.0 / params.hist_bins), abs=1e-9)

    def test_merge_ledger_for_known_start_has_zero_entropy(self, default_params):
        rep = simulate_bitflip(default_params, 10.0, 200, SeededRng(7))
        merges = [e for e in rep.ledger.entries if e.kind == "merge"]
        assert len(merges) == 1
        assert merges[0].entropy_nats == 0.0  # prior is degenerate: nothing destroyed


class TestErasure:
    def test_heat_meets_landauer_bound(self, default_params):
        rep = simulate_erasure(default_params, 40.0, 1000, SeededRng(8))
        bound = landauer_bound(rep)
        assert bound > 0.0
        assert rep.heat_env >= bound * (1.0 - 3 * rep.heat_std / max(rep.heat_env, 1e-12))

    def test_nothing_to_erase_costs_no_information_heat(self, default_params):
        # Start fully in basin 1 and ramp the tilt toward basin 1. The export
        # splits into (i) the reversible intra-well deformation heat -T dS_sys
        # (tilting stiffens the well; physical but information-free) and (ii)
        # excess from finite protocol speed. There is no ln2-scale erasure
        # term: the excess stays well below kT ln 2, and the dissipated work
        # referenced to the basin-restricted start (F_start + kT ln 2) is a
        # small nonnegative finite-rate cost.
        from metrilab.cce import _run_protocol, erasure_schedule

        kT = default_params.kT
        sched = erasure_schedule(default_params, 40.0)
        rep = _run_protocol(default_params, sched, 40.0, 600, SeededRng(9), n_high=600)
        reversible_heat = -kT * rep.dS_sys / default_params.alpha
        excess = rep.heat_env - reversible_heat
        assert abs(excess) < 0.5 * kT * np.log(2.0)
        w_diss_restricted = rep.dissipated_work + kT * np.log(2.0)
        assert -3 * rep.work_std < w_diss_restricted < 0.5 * kT

    def test_fast_protocol_heats_more(self, default_params):
        slow = simulate_erasure(default_params, 40.0, 500, SeededRng(10))
        fast = simulate_erasure(default_params, 5.0, 500, SeededRng(10))
        assert fast.heat_env > slow.heat_env

    def test_merge_entry_carries_ln2(self, default_params):
        rep = simulate_erasure(default_params, 20.0, 200, SeededRng(11))
        merges = [e for e in rep.ledger.entries if e.kind == "merge"]
        assert len(merges) == 1
        assert merges[0].entropy_nats == pytest.approx(np.log(2.0))


def _advance_one_shot(params, p, work, sched, gen, sigma, inv_gamma, step, phase):
    # cce._advance as it was before its noise was drawn in blocks: the whole
    # (steps, trials) draw, then one kernel call
    noise = sigma * gen.standard_normal((len(sched) - 1, p.size))
    with np.errstate(over="ignore", invalid="ignore"):
        p, work = kernels.doublewell_chunk(p, work, sched, noise, params.a, params.b,
                                           params.c, inv_gamma, params.dt)
    if not np.isfinite(p).all():
        raise IntegrationDivergedError(step, f"non-finite double-well state by {phase} step {step}")
    return p, work


class TestBlockedNoise:
    """The burn-in and each protocol chunk draw their noise a block of steps
    at a time; the runs equal one whole draw per chunk, bit for bit."""

    # 1000 burn-in steps and 125-step protocol chunks (500 steps, 4
    # snapshots): at 1000 trials the default budget gives 65-step blocks, and
    # a budget of 7 rows gives 7-step blocks; neither divides 1000 or 125
    @pytest.mark.parametrize("run", (simulate_bitflip, simulate_erasure))
    @pytest.mark.parametrize("trials, block_steps", ((1000, None), (50, 7)))
    @pytest.mark.parametrize("burn_in", (2.0, 0.0))
    def test_runs_equal_one_shot_draws(self, monkeypatch, run, trials, block_steps, burn_in):
        if block_steps is not None:
            monkeypatch.setattr(cce, "BLOCK_ELEMENTS", block_steps * trials)
        params = DoubleWellParams(burn_in=burn_in, snapshots=4)
        blocked = run(params, 1.0, trials, SeededRng(12))
        with monkeypatch.context() as m:
            m.setattr(cce, "_advance", _advance_one_shot)
            ref = run(params, 1.0, trials, SeededRng(12))
        assert blocked.per_trial.keys() == ref.per_trial.keys()
        for key in ref.per_trial:
            assert np.array_equal(blocked.per_trial[key], ref.per_trial[key]), key
        assert blocked.series.keys() == ref.series.keys()
        for key in ref.series:
            assert np.array_equal(blocked.series[key], ref.series[key]), key

    def test_burn_in_divergence_reports_its_last_step(self, monkeypatch):
        # dt = 0.3 is past the explicit step's stability limit; the state
        # overflows in an early 2-step block, but the one check at the end of
        # the burn-in names its last step, as the one-shot draw did
        monkeypatch.setattr(cce, "BLOCK_ELEMENTS", 2 * 20)
        params = DoubleWellParams(dt=0.3, burn_in=30.0)
        errors = []
        for advance in (cce._advance, _advance_one_shot):
            with monkeypatch.context() as m:
                m.setattr(cce, "_advance", advance)
                with pytest.raises(IntegrationDivergedError) as err:
                    simulate_bitflip(params, 1.0, 20, SeededRng(0))
            errors.append((err.value.step, str(err.value)))
        assert errors[0] == errors[1] == (100, "non-finite double-well state by burn-in step 100")
