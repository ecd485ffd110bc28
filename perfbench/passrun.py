"""One benchmark pass: a fresh interpreter runs one workload's subcommands in
sequence through the metrilab CLI entry point and writes DIR/pass.json with
the exit codes, the thread count the loaded OpenBLAS reports and, with
--trace, the per-layer spans.

    python3 perfbench/passrun.py --workload verify --seed 3 --out DIR [--config FILE] [--trace]

run.py launches it with PYTHONPATH pointing at the checkout's src/ and the
BLAS thread variables pinned to 1.
"""

import argparse
import ctypes
import json
import os
import sys
import traceback

from workloads import WORKLOADS

_BLAS_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")


def blas_threads():
    """Thread count reported by the OpenBLAS loaded in this process, or None
    when no OpenBLAS is mapped."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _BLAS_GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--config", default=None)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import metrilab.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    codes = {}
    try:
        for sub in WORKLOADS[args.workload].subcommands:
            argv = [sub, "--seed", str(args.seed), "--out", os.path.join(args.out, sub),
                    "--threads", "1", "--quiet"]
            if args.config:
                argv += ["--config", args.config]
            try:
                if tracer is not None:
                    codes[sub] = tracer.call(f"cli.{sub}", cli.main, argv)
                else:
                    codes[sub] = cli.main(argv)
            except Exception:
                # an escaped traceback is not a documented exit; record it
                # and let the next subcommand run
                traceback.print_exc()
                codes[sub] = None
    finally:
        if tracer is not None:
            tracer.restore()

    result = {"exit_codes": codes, "blas_threads": blas_threads(),
              "metrilab_file": os.path.abspath(cli.__file__)}
    if tracer is not None:
        result["trace"] = tracer.metrics()
    with open(os.path.join(args.out, "pass.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
