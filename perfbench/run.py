"""End-to-end benchmark of the metrilab CLI.

    python3 perfbench/run.py --workload protocols --seed 0 --seconds 40 --trace 0

Closed loop, one client: each pass is a fresh interpreter (passrun.py) that
runs the workload's subcommands in sequence at the default config with
--threads 1; the next pass starts when the previous one has ended and its
artifacts have been checked (check.py). A pass starts only when it is
expected to end within --seconds. BLAS libraries are pinned to one thread in
every launch.

Set-up time is sampled by setup-only launches (interpreter start, importing
the CLI, parsing the default config) in small groups between the passes, so
the samples spread over the whole run; the median is reported. One setup
launch and one pass at a reduced config run first and are discarded.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (tracer.py). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")

from check import check_pass, load_reference  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import SETUP_CODE, WARMUP_CONFIG, WORKLOADS  # noqa: E402

SETUP_PER_GAP = 6      # setup launches before each pass and after the last
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
EXTRA_LAYER = {"artifacts.compared": "count", "artifacts.identical": "count",
               "artifacts.bytes": "B", "checks.false_alarms": "count", "trace.overhead_s": "s"}


def per_layer_units():
    return {**metric_units(), **EXTRA_LAYER}


def launch_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def timed_launch(argv, env, log_path):
    """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Run:
    def __init__(self, workload, seed, run_dir):
        self.workload = workload
        self.subcommands = WORKLOADS[workload].subcommands
        self.seed = seed
        self.run_dir = run_dir
        self.env = launch_env()
        self.log = os.path.join(run_dir, "launches.log")
        self.reference = load_reference(seed)
        self.first_digests = None
        self.passes = []          # dicts: traced, wall, cpu, rss, ok, check, trace
        self.setup = []

    def setup_launches(self, n):
        for _ in range(n):
            code, wall, _, _ = timed_launch([sys.executable, "-c", SETUP_CODE], self.env, self.log)
            if code != 0:
                with open(self.log) as fh:
                    sys.stderr.writelines(fh.readlines()[-20:])
                raise RuntimeError(f"setup launch exited {code}")
            self.setup.append(wall)

    def one_pass(self, traced=False, config=None, keep=True):
        out = os.path.join(self.run_dir, f"pass{len(self.passes):03d}")
        argv = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--out", out]
        if config:
            argv += ["--config", config]
        if traced:
            argv.append("--trace")
        os.makedirs(out)
        code, wall, cpu, rss = timed_launch(argv, self.env, self.log)
        info = {}
        if code == 0:
            with open(os.path.join(out, "pass.json")) as fh:
                info = json.load(fh)
        if keep:
            self._record(out, code, info, traced, wall, cpu, rss)
        shutil.rmtree(out)

    def _record(self, out, code, info, traced, wall, cpu, rss):
        check = check_pass(out, self.subcommands, info.get("exit_codes", {}), self.reference)
        if code != 0:
            check.problems.append(f"pass runner exited {code}")
            with open(self.log) as fh:
                sys.stderr.writelines(fh.readlines()[-20:])
        threads = info.get("blas_threads")
        if threads is not None and threads > 1:
            check.problems.append(f"OpenBLAS reports {threads} threads")
        if info and not info["metrilab_file"].startswith(SRC + os.sep):
            check.problems.append(f"metrilab imported from {info['metrilab_file']}, not {SRC}")
        if self.first_digests is None:
            self.first_digests = check.digests
        elif check.digests != self.first_digests:
            check.problems.append("artifacts differ from the first pass of this run")
        for line in check.problems[:10]:
            print(f"  pass {len(self.passes)}: {line}", file=sys.stderr)
        print(f"pass {len(self.passes)}{' traced' if traced else ''}: {wall:.3f} s wall, "
              f"{cpu:.3f} s cpu, {rss:.1f} MB, OpenBLAS threads {threads}, "
              f"{'ok' if check.ok else 'FAILED'}", file=sys.stderr)
        self.passes.append({"traced": traced, "wall": wall, "cpu": cpu, "rss": rss,
                            "ok": check.ok, "check": check, "trace": info.get("trace")})


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def end_to_end(run):
    plain = [p for p in run.passes if not p["traced"]]
    return {
        "wall_s": median_of(plain, "wall"),
        "cpu_s": median_of(plain, "cpu"),
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": median_of(plain, "rss"),
        "ok_frac": sum(p["ok"] for p in run.passes) / len(run.passes),
    }


def per_layer(run):
    traced = [p for p in run.passes if p["traced"] and p["trace"]]
    plain = [p for p in run.passes if not p["traced"]]
    values = dict.fromkeys(per_layer_units(), 0)  # zeros stay where no traced pass succeeded
    if traced:
        for name in traced[0]["trace"]:
            values[name] = statistics.median(p["trace"][name] for p in traced)
    checks = [p["check"] for p in run.passes]
    values["artifacts.compared"] = statistics.median(c.compared for c in checks)
    values["artifacts.identical"] = statistics.median(c.identical for c in checks)
    values["artifacts.bytes"] = statistics.median(c.nbytes for c in checks)
    values["checks.false_alarms"] = statistics.median(c.false_alarms for c in checks)
    if traced and plain:
        values["trace.overhead_s"] = median_of(traced, "wall") - median_of(plain, "wall")
    return values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metrilab", "cli.py")):
        print(f"perfbench: no metrilab sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        run = Run(args.workload, args.seed, run_dir)
        warm_cfg = os.path.join(run_dir, "warmup.cfg")
        with open(warm_cfg, "w") as fh:
            fh.write(WARMUP_CONFIG)
        run.setup_launches(1)
        run.setup.clear()  # the warm-up launch is not a sample
        run.one_pass(config=warm_cfg, keep=False)

        # another pass (with the setup launches before it) starts only if it
        # is expected to end within --seconds
        start = time.perf_counter()
        cycles = []
        while True:
            t0 = time.perf_counter()
            if args.trace:
                run.one_pass(traced=bool(len(run.passes) % 2))
                done = len(run.passes) >= 2
            else:
                run.setup_launches(SETUP_PER_GAP)
                run.one_pass()
                done = True
            cycles.append(time.perf_counter() - t0)
            if done and time.perf_counter() - start + statistics.median(cycles) > args.seconds:
                break
        if not args.trace:
            run.setup_launches(SETUP_PER_GAP)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass  # another run still uses it

    if args.trace:
        units, values = per_layer_units(), per_layer(run)
    else:
        units, values = END_TO_END, end_to_end(run)
    failed = sum(not p["ok"] for p in run.passes)
    result = {
        "correct": failed == 0,
        "attempted": len(run.passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
