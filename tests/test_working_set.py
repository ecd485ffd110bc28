"""Peak allocations of the blocked statistics, the blocked noise draws and a
whole default `checks` run.

tracemalloc sees numpy's array allocations, so each bound below fails if a
whole-array form comes back: the (200, 10 000) bootstrap gather alone is
16 MB, an int64 resample index of that shape 16 MB more, the (200, 4001)
quadrature densities 6.4 MB, and a one-shot (1000, 1000) burn-in draw 8 MB.
"""

import tracemalloc

import numpy as np

from metrilab import cce, cli, metrics
from metrilab.config import parse_config
from metrilab.numerics import SeededRng

MiB = 1 << 20


def peak_allocation(fn):
    """Bytes allocated by fn at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_tur_check_at_ten_thousand_walkers():
    j, sigma = metrics.biased_walk_currents(0.0505, 0.0495, 10000, 10000, SeededRng(7))
    metrics._bootstrap_index(j.size)  # the cached index is not working set
    assert peak_allocation(lambda: metrics.tur_check(j, sigma)) < 2 * MiB


def test_quadrature_at_two_hundred_atoms():
    z = SeededRng(3).generator().standard_normal(200)
    chan = metrics.logistic_mean_channel(2.0, 1.5, 0.2, 0.6)
    peak = peak_allocation(lambda: metrics.mutual_information_quadrature(chan, z, np.full(200, 0.005)))
    assert peak < 3 * MiB


def test_default_checks_run():
    # the uint16 resample index of the 10 000-walker near-equilibrium row is
    # 3.8 MiB of this peak; it is drawn inside the run
    metrics._bootstrap_index.cache_clear()
    assert peak_allocation(lambda: cli._checks_rows(parse_config(None), 0)) < 8 * MiB


def test_burn_in_of_a_thousand_trials():
    # one 65-row noise buffer (0.5 MiB) serves every block; a fresh draw
    # plus a scaled copy per block would double it
    params = cce.DoubleWellParams()
    trials, steps = 1000, 1000
    p = np.full(trials, params.well_positions(-params.C_max)[0])
    sched = np.full(steps + 1, -params.C_max)

    def burn_in():
        cce._advance(params, p, np.zeros(trials), sched, SeededRng(1).generator(),
                     np.sqrt(2.0 * params.D * params.dt), 1.0 / params.gamma, steps, "burn-in")

    assert peak_allocation(burn_in) < 0.75 * MiB
