"""Workload definitions shared by run.py and the pass runner."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    subcommands: tuple
    why: str


# Each workload stresses different layers; the "why" text is also what
# BENCHMARK.json declares.
WORKLOADS = {
    "protocols": Workload(
        ("bitflip", "erasure"),
        "wide double-well ensembles (1000 trials x ~95k steps) plus cce bookkeeping; "
        "no circuits, ridge readout or lattice, so it is their control"),
    "pipelines": Workload(
        ("exp1", "exp2", "exp3", "exp4"),
        "rotor kernel with ridge_fit/lagged_r2, esn_collect with spectral_radius, "
        "ca_step with patch_entropy; no double-well and no circuits"),
    "verify": Workload(
        ("gates", "checks", "monitor"),
        "per-row Python RK4 in settle_and_read, metrics bound checks, and narrow "
        "double-well ensembles where per-step overhead dominates"),
}

SUBCOMMANDS = tuple(s for w in WORKLOADS.values() for s in w.subcommands)

# Setup-only launch: interpreter start, importing the CLI (which imports every
# layer) and parsing the default config.
SETUP_CODE = ("import metrilab.cli\n"
              "from metrilab.config import parse_config\n"
              "parse_config(None)\n")

# The discarded warm-up pass runs every subcommand of the workload at these
# reduced sizes: it compiles the .pyc files and pulls every module and shared
# library the timed passes use into the page cache, in about a tenth of a
# full pass.
WARMUP_CONFIG = """\
[bitflip]
trials = 20
durations = [1.0]
[erasure]
trials = 20
T_protocol = 1.0
[exp1]
steps = 200
lambda_grid = [0.01, 1.0]
[exp2]
trials_per_freq = 2
horizon = 5.0
[exp3]
washout = 20
train = 50
test = 50
rho_grid = [0.5, 0.9]
[exp4]
steps = 20
[checks]
tur_ensembles = 2
tur_walkers = 200
trace_random_channels = 2
classical_trials = 20
classical_T = 2.0
[monitor]
steps = 200
"""
