"""Single entry point: seeded experiment runs, gate verification, double-well
protocols, and bound-check suites.

Each subcommand handler returns a `Run`: the result table, extra files by
name, the failing rows and a one-line summary. `main` writes all of them,
plus a run manifest, into the output directory through experiments.base.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 check failure.
Each failing row is printed as one JSON line on stderr (also under --quiet)
and listed under `failures` in the manifest. CSV tables and *.meta.json /
*.json result sidecars are byte-deterministic for a fixed (config, seed);
manifest.json additionally records timestamp and wall time and is the one
artifact excluded from the byte-identity guarantee.
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from collections import namedtuple
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .cce import landauer_bound, simulate_bitflip, simulate_erasure
from .circuits import (
    PULSE_AMPLITUDE,
    CircuitStack,
    GateParams,
    LogicalReadout,
    build_gate,
    judge_table,
    latch_holds,
    logical_table,
    read_latch,
    settle_and_read,
)
from .config import RunConfig, parse_config
from .errors import AmbiguousStateError, InvalidConfigError, MetrilabError
from .experiments import run_exp1, run_exp2, run_exp3, run_exp4
from .experiments.base import ExperimentResult, jsonable, sweep, write_json, write_result
from .metrics import (
    biased_walk_currents,
    classical_bound_check,
    linear_gaussian_channel,
    logistic_mean_channel,
    report_fluxes,
    safety_monitor,
    trace_bound_check,
    tur_check,
)
from .numerics import SeededRng

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

#: What a subcommand produced: `result` is an ExperimentResult or None,
#: `sidecars` maps file names to a JSON payload or CSV text, `failures` holds
#: one dict per failing row and `summary` is the line printed unless --quiet.
Run = namedtuple("Run", "result sidecars failures summary")


def _table_run(result, out):
    return Run(result, {}, [], f"{result.name}: wrote {len(result.rows)} rows to {out}")


def _handle_exp1(cfg: RunConfig, seed, out, threads):
    return _table_run(run_exp1(cfg.exp1, seed, threads=threads), out)


def _handle_exp2(cfg: RunConfig, seed, out, threads):
    return _table_run(run_exp2(cfg.exp2, seed), out)


def _handle_exp3(cfg: RunConfig, seed, out, threads):
    return _table_run(run_exp3(cfg.exp3, seed, threads=threads), out)


def _handle_exp4(cfg: RunConfig, seed, out, threads):
    def sink(t, field):
        np.save(os.path.join(out, f"field_t{t:04d}.npy"), field)

    sub = cfg.exp4
    return _table_run(run_exp4(sub, seed, field_sink=sink if sub.save_fields else None), out)


def _gate_rows(gcfg, seed):
    """One row per gate and noise level (0, then `[gates] noise`). Every
    truth-table row of the six gates at both levels settles in one
    CircuitStack batch, the noisy row j of gate i drawing from
    SeededRng(seed).derive(i).derive(j); both latch runs are one 2-row
    integration, the noisy one drawing from SeededRng(seed).derive(99)."""
    readout = LogicalReadout()
    levels = (0.0, gcfg.noise)
    rng = SeededRng(seed)
    kinds = ("NOT", "AND", "OR", "NAND", "NOR", "XOR")
    tables = [logical_table(kind) for kind in kinds]
    circuits, inputs, row_noise, rngs = [], [], [], []
    for i, (gate, table) in enumerate(zip([build_gate(kind, gcfg) for kind in kinds], tables)):
        for level in levels:
            circuits += [gate] * len(table)
            inputs += [row for row, _ in table]
            row_noise += [level] * len(table)
            rngs += [rng.derive(i).derive(j) if level else None for j in range(len(table))]
    settled = settle_and_read(CircuitStack(circuits), inputs, readout, noise=row_noise, rng=rngs)
    rows = []
    start = 0
    for kind, table in zip(kinds, tables):
        for noise in levels:
            res = judge_table(table, settled.labels[start:start + len(table)])
            start += len(table)
            rows.append({"gate": kind, "noise": noise, "passed": res.passed,
                         "counterexamples": len(res.counterexamples)})
    ff = build_gate("FLIPFLOP", gcfg)
    holds = latch_holds(ff, [("set", 5.0, 10.0), ("reset", 40.0, 45.0)], readout,
                        np.zeros((2, ff.dim)), hold_after=30.0, noise=levels,
                        gen=[None, rng.derive(99).generator()])
    for h, noise in enumerate(levels):
        try:
            readings, _ = read_latch(ff, [(t, x[h]) for t, x in holds], readout, pulsed=True)
            ok = [b for _, b in readings][-2:] == [1, 0]
        except AmbiguousStateError:
            ok = False
        rows.append({"gate": "FLIPFLOP", "noise": noise, "passed": ok, "counterexamples": 0 if ok else 1})
    return rows


def _handle_gates(cfg: RunConfig, seed, out, threads):
    rows = _gate_rows(cfg.gates, seed)
    result = ExperimentResult(name="gates",
                              columns=["gate", "noise", "passed", "counterexamples"],
                              metadata={"seed": seed, "config": cfg.gates.__dict__.copy(),
                                        "defaults": {**GateParams().__dict__,
                                                     "pulse_amplitude": PULSE_AMPLITUDE}})
    for r in rows:
        result.add_row(**r)
    failures = [{k: r[k] for k in ("gate", "noise", "counterexamples")}
                for r in rows if not r["passed"]]
    return Run(result, {}, failures,
               f"gates: {'FAILURES' if failures else 'all pass'} ({len(rows)} checks)")


def _protocol_sidecars(name, report, per_trial_csv):
    """<name>.report.json, plus <name>.trials.csv when per_trial_csv is set."""
    sidecars = {f"{name}.report.json": report.to_json_dict()}
    if per_trial_csv:
        cols = ["work", "heat", "final_state", "final_label"]
        rows = [{"trial": i, **{c: report.per_trial[c][i] for c in cols}}
                for i in range(report.trials)]
        sidecars[f"{name}.trials.csv"] = ExperimentResult(name, ["trial", *cols], rows).to_csv_text()
    return sidecars


def _handle_bitflip(cfg: RunConfig, seed, out, threads):
    pc = cfg.bitflip
    result = ExperimentResult(
        name="bitflip",
        columns=["T_protocol", "success_prob", "work_total", "heat_env",
                 "dU_sys", "dS_sys", "dissipated_work", "work_std"],
        metadata={"seed": seed, "config": pc.__dict__.copy()},
    )
    for i, T in enumerate(pc.duration_sweep()):
        rep = simulate_bitflip(pc, T, pc.trials, SeededRng(seed).derive(i))
        result.add_row(T_protocol=T, success_prob=rep.success_prob, work_total=rep.work_total,
                       heat_env=rep.heat_env, dU_sys=rep.dU_sys, dS_sys=rep.dS_sys,
                       dissipated_work=rep.dissipated_work, work_std=rep.work_std)
    return Run(result, _protocol_sidecars("bitflip", rep, pc.per_trial_csv), [],
               f"bitflip: success={rep.success_prob:.3f} W_diss={rep.dissipated_work:.4f}")


def _handle_erasure(cfg: RunConfig, seed, out, threads):
    pc = cfg.erasure
    rep = simulate_erasure(pc, pc.T_protocol, pc.trials, SeededRng(seed))
    bound = landauer_bound(rep)
    result = ExperimentResult(
        name="erasure",
        columns=["T_protocol", "success_prob", "heat_env", "heat_std", "landauer_bound",
                 "work_total", "dS_sys", "dissipated_work"],
        metadata={"seed": seed, "config": pc.__dict__.copy()},
    )
    result.add_row(T_protocol=pc.T_protocol, success_prob=rep.success_prob, heat_env=rep.heat_env,
                   heat_std=rep.heat_std, landauer_bound=bound, work_total=rep.work_total,
                   dS_sys=rep.dS_sys, dissipated_work=rep.dissipated_work)
    return Run(result, _protocol_sidecars("erasure", rep, pc.per_trial_csv), [],
               f"erasure: heat={rep.heat_env:.4f} >= bound={bound:.4f}?"
               f" {'yes' if rep.heat_env >= bound else 'NO'}")


def _checks_rows(cfg: RunConfig, seed, threads=1):
    cc = cfg.checks

    def walk_check(i):
        rng = SeededRng(seed).derive(i)
        j, sigma = biased_walk_currents(cc.tur_forward, cc.tur_backward,
                                        cc.tur_steps, cc.tur_walkers, rng)
        r = tur_check(j, sigma)
        return {"name": f"tur_walk_{i:03d}", "lhs": r["lhs"], "rhs": r["rhs"],
                "satisfied": r["satisfied"], "slack": r["slack"], "seed": seed}

    # The near-equilibrium row runs before the walk sweep, though it is listed
    # after it: the sweep's ensembles then evict its 5x larger bootstrap index
    # from tur_check's cache, instead of leaving it resident to the end.
    hop = 0.5 * (cc.tur_forward + cc.tur_backward)
    f_eq = hop * cc.near_eq_ratio / (1.0 + cc.near_eq_ratio) * 2.0
    b_eq = 2.0 * hop - f_eq
    j, sigma = biased_walk_currents(f_eq, b_eq, cc.tur_steps * 10, cc.tur_walkers * 5,
                                    SeededRng(seed).derive(9000))
    r = tur_check(j, sigma)
    saturation = r["lhs"] / r["rhs"] if np.isfinite(r["lhs"]) else np.inf
    near_eq = {"name": "tur_near_equilibrium", "lhs": r["lhs"], "rhs": r["rhs"],
               "satisfied": bool(r["satisfied"] and 0.5 <= saturation <= 2.0),
               "slack": r["slack"], "seed": seed}

    rows = sweep(walk_check, range(cc.tur_ensembles), threads)
    rows.append(near_eq)

    score_scale = 0.3 if cc.channel_preset == "corrupted" else 1.0
    chan = linear_gaussian_channel(cc.gauss_sigma)
    chan.score_scale = score_scale
    z = cc.gauss_tau * SeededRng(seed).derive(9100).generator().standard_normal(cc.trace_prior_samples)
    r = trace_bound_check(chan, z)
    rows.append({"name": "trace_bound_gaussian", "lhs": r["c_t"], "rhs": r["half_trace_G"],
                 "satisfied": r["satisfied"], "slack": r["half_trace_G"] - r["c_t"], "seed": seed})

    prev_gap = None
    for k, snr in enumerate(sorted(cc.tight_snrs, reverse=True)):
        tau = cc.gauss_sigma * np.sqrt(snr)
        zz = tau * SeededRng(seed).derive(9200 + k).generator().standard_normal(cc.trace_prior_samples)
        rr = trace_bound_check(linear_gaussian_channel(cc.gauss_sigma), zz)
        gap = abs(rr["tightness"] - 1.0)
        ok = rr["satisfied"] and (prev_gap is None or gap <= prev_gap + 1e-9)
        prev_gap = gap
        rows.append({"name": f"trace_tightness_snr_{snr:g}", "lhs": rr["tightness"], "rhs": 1.0,
                     "satisfied": bool(ok), "slack": -gap, "seed": seed})

    gen = SeededRng(seed).derive(9300).generator()
    for k in range(cc.trace_random_channels):
        chan = logistic_mean_channel(level=gen.uniform(0.5, 3.0), slope=gen.uniform(0.5, 3.0),
                                     center=gen.uniform(-1.0, 1.0), sigma=gen.uniform(0.3, 1.5),
                                     name=f"logistic_{k:02d}")
        chan.score_scale = score_scale
        atoms = np.array([gen.uniform(-2.0, 0.0), gen.uniform(0.0, 2.0)])
        r = trace_bound_check(chan, atoms)
        rows.append({"name": f"trace_bound_{chan.name}", "lhs": r["c_t"], "rhs": r["half_trace_G"],
                     "satisfied": r["satisfied"], "slack": r["half_trace_G"] - r["c_t"], "seed": seed})

    # isothermal power bound on a quick protocol pair plus synthetic saturation
    for name, sim in (("classical_bitflip", simulate_bitflip), ("classical_erasure", simulate_erasure)):
        rep = sim(cfg.bitflip, cc.classical_T, cc.classical_trials,
                  SeededRng(seed).derive(9400 + (name == "classical_erasure")))
        fluxes, T_env = report_fluxes(rep)
        r = classical_bound_check(fluxes, T_env, stat_tol=3.0 * rep.work_std / cc.classical_T)
        rows.append({"name": name, "lhs": r["lhs_power"], "rhs": r["rhs_power"],
                     "satisfied": r["satisfied"], "slack": r["slack"], "seed": seed})
    t = np.linspace(0.0, 1.0, 11)
    w = np.ones_like(t)
    synth = {"times": t, "w_dot": w, "i_irr_dot": w, "f_sys_dot": 0.0 * t, "s_prod_dot": 0.0 * t}
    r = classical_bound_check(synth, T_env=1.0)
    rows.append({"name": "classical_synthetic_saturation", "lhs": r["lhs_power"],
                 "rhs": r["rhs_power"], "satisfied": bool(r["satisfied"] and abs(r["slack"]) < 1e-12),
                 "slack": r["slack"], "seed": seed})
    return rows


def _handle_checks(cfg: RunConfig, seed, out, threads):
    rows = _checks_rows(cfg, seed, threads)
    result = ExperimentResult(name="checks",
                              columns=["name", "lhs", "rhs", "satisfied", "slack", "seed"],
                              metadata={"seed": seed, "config": cfg.checks.__dict__.copy()})
    for r in rows:
        result.add_row(**{k: r[k] for k in result.columns})
    failures = [{k: r[k] for k in ("name", "lhs", "rhs", "slack")}
                for r in rows if not r["satisfied"]]
    return Run(result, {"checks.json": rows}, failures,
               f"checks: {len(rows) - len(failures)}/{len(rows)} satisfied")


def _handle_monitor(cfg: RunConfig, seed, out, threads):
    mc = cfg.monitor
    # Constant-flux series from the renormalized rotor regime: information and
    # entropy rates are exactly lam; the work channel carries no task proxy.
    t = np.arange(mc.steps) * mc.dt
    series = {
        "times": t,
        "w_dot": np.zeros(mc.steps),
        "i_irr_dot": np.full(mc.steps, mc.lam),
        "s_prod_dot": np.full(mc.steps, mc.lam),
        "f_sys_dot": np.zeros(mc.steps),
    }
    report = safety_monitor(series, mc.limits(), window=mc.window)
    payload = {"seed": seed, "lambda": mc.lam, "n_samples": report.n_samples,
               "first_violation_time": report.first_violation_time,
               "counts": report.counts, "total": report.total,
               "limits": cfg.monitor.__dict__.copy()}
    return Run(None, {"monitor.json": payload}, [],
               f"monitor: {report.total} violations over {report.n_samples} samples")


HANDLERS = {
    "exp1": _handle_exp1,
    "exp2": _handle_exp2,
    "exp3": _handle_exp3,
    "exp4": _handle_exp4,
    "gates": _handle_gates,
    "bitflip": _handle_bitflip,
    "erasure": _handle_erasure,
    "checks": _handle_checks,
    "monitor": _handle_monitor,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="metrilab",
                                     description="seeded dynamics experiments and bound checks")
    parser.add_argument("subcommand", choices=sorted(HANDLERS))
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides config seed")
    parser.add_argument("--out", default=None, help="output directory (default runs/<subcommand>)")
    parser.add_argument("--threads", type=int, default=1, help="parallelism cap for sweeps")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    start = time.time()
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
    except FileNotFoundError as exc:
        print(json.dumps({"error": "config-not-found", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a directory, or a file that cannot be read
        print(json.dumps({"error": "config-unreadable", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except InvalidConfigError as exc:
        print(json.dumps({"error": "config-error", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg.seed
    out = args.out or os.path.join("runs", args.subcommand)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path that cannot be made
        print(json.dumps({"error": "bad-output-dir", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    try:
        run = HANDLERS[args.subcommand](cfg, seed, out, max(1, args.threads))
    except InvalidConfigError as exc:
        print(json.dumps({"error": "config-error", "detail": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except MetrilabError as exc:
        print(json.dumps({"error": "numerical-failure", "kind": type(exc).__name__,
                          "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL

    if run.result is not None:
        write_result(run.result, out)
    for fname, payload in run.sidecars.items():
        if isinstance(payload, str):
            with open(os.path.join(out, fname), "w") as fh:
                fh.write(payload)
        else:
            write_json(os.path.join(out, fname), payload)
    if not args.quiet:
        print(run.summary)
    for row in run.failures:
        print(json.dumps(jsonable({"error": "check-failed", **row})), file=sys.stderr)
    code = EXIT_CHECK_FAILED if run.failures else EXIT_OK

    manifest = {
        "subcommand": args.subcommand,
        "config_path": args.config,
        "seed": seed,
        "out": out,
        "parameters": cfg.resolved(),
        "code_version": __version__,
        "kernel_path": "numpy",
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": round(time.time() - start, 3),
        "exit_code": code,
        "failures": run.failures,
    }
    write_json(os.path.join(out, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
