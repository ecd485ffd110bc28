"""Store the reference artifacts of every workload for the given seeds.

    python3 perfbench/make_references.py 0 1 2 ...

Runs one pass per workload and seed at the default config, refuses to store
a pass that fails its output check, and writes references/seed-NNNN.json.gz.
Regenerate only when a change to the program's outputs has been declared.
"""

import json
import os
import shutil
import sys

from check import check_pass, read_artifacts, write_reference
from run import HERE, WORK_DIR, launch_env, timed_launch
from workloads import WORKLOADS


def main(seeds):
    env = launch_env()
    for seed in seeds:
        artifacts = {}
        for name, wl in WORKLOADS.items():
            out = os.path.join(WORK_DIR, f"reference-{name}-{seed}")
            shutil.rmtree(out, ignore_errors=True)
            os.makedirs(out)
            argv = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", name,
                    "--seed", str(seed), "--out", out]
            code, wall, _, _ = timed_launch(argv, env, os.path.join(out, "launch.log"))
            with open(os.path.join(out, "pass.json")) as fh:
                codes = json.load(fh)["exit_codes"]
            check = check_pass(out, wl.subcommands, codes)
            if code != 0 or not check.ok:
                raise SystemExit(f"seed {seed} {name}: {check.problems or code}")
            artifacts.update(read_artifacts(out, wl.subcommands)[0])
            shutil.rmtree(out)
            print(f"seed {seed} {name}: {wall:.1f} s", file=sys.stderr)
        write_reference(seed, artifacts)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
