import numpy as np
import pytest

from metrilab.cce import (
    DoubleWellParams,
    IrreversibilityLedger,
    classify_basin,
    encoding_path_length,
    landauer_bound,
    make_double_well_space,
    merge_entropy,
    preserved_information,
    simulate_bitflip,
    simulate_erasure,
)
from metrilab.errors import BoundaryStateError, InvalidConfigError
from metrilab.numerics import SeededRng, Trajectory


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


class TestClassify:
    def test_sign_readout(self):
        space = make_double_well_space()
        assert classify_basin(space, -1.0) == 0
        assert classify_basin(space, 1.0) == 1

    def test_separatrix_raises(self):
        space = make_double_well_space()
        with pytest.raises(BoundaryStateError):
            classify_basin(space, 0.0)


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
    def test_zero_trials_invalid(self, default_params):
        with pytest.raises(InvalidConfigError):
            simulate_bitflip(default_params, 10.0, 0, SeededRng(0))

    def test_single_trial_invalid(self, default_params):
        # the work and heat spreads use ddof = 1, which one trial cannot give
        with pytest.raises(InvalidConfigError, match="trials must be >= 2"):
            simulate_bitflip(default_params, 1.0, 1, SeededRng(0))

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
                       strict=False)
    def test_quasistatic_dissipation_below_tenth_kT(self, default_params):
        rep = simulate_bitflip(default_params, 160.0, 400, SeededRng(6))
        assert rep.dissipated_work < 0.1 * default_params.kT

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
        from metrilab.cce import _run_protocol, erasure_schedule, make_double_well_space

        kT = default_params.kT
        sched = erasure_schedule(default_params, 40.0)
        space = make_double_well_space(priors=(0.0, 1.0))
        rep = _run_protocol(default_params, sched, 40.0, 600, SeededRng(9),
                            init_labels=np.ones(600, dtype=int), space=space)
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
