"""Default-config digests: every subcommand of `cli.HANDLERS` runs at its
default config and seed 0, plus `checks` at seed 5, whose known TUR false
alarm exits 4, and `bitflip` and `erasure` on `tests/golden/default/uneven.cfg`.
Each run's exit code, stderr and the SHA-256 of every artifact it writes,
manifest.json aside, must equal `tests/golden/default/digests.json`.

The reduced configs of `test_golden.py` miss paths that only the default
sizes take (double-well noise blocks shorter than a protocol chunk, BLAS
thresholds), so this test covers them. The rows run in two concurrent
subprocesses with OPENBLAS_NUM_THREADS=1, because threaded BLAS moves low bits
of exp3 and checks. On a mismatch the test names the file and its first
differing line, found through the per-line digests stored beside each file's
SHA-256.

The rows name the config by a path relative to the repository root, and the
rows run from there. To regenerate after a deliberate output change (in a
commit of its own), from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_default_digests.py \
        "$(mktemp -d)" > tests/golden/default/digests.json

Row indices after the output directory run only those rows.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "golden", "default", "digests.json")

ROWS = [[name, "--seed", "0"] for name in
        ("bitflip", "checks", "erasure", "exp1", "exp2", "exp3", "exp4", "gates", "monitor")]
ROWS.append(["checks", "--seed", "5"])
# an odd erasure ensemble and partial snapshot chunks, which no default size takes
ROWS += [[name, "--seed", "0", "--config", "tests/golden/default/uneven.cfg"] for name in ("bitflip", "erasure")]
# the default bitflip takes about a third of the rows' time, so it runs in a
# subprocess of its own beside one that runs the rest
PARTS = [[0], list(range(1, len(ROWS)))]


def line_digests(data):
    """Eight hex digits of each line's SHA-256, concatenated."""
    return "".join(hashlib.sha256(line).hexdigest()[:8] for line in data.splitlines(keepends=True))


def run_rows(out, indices):
    """Run the rows at `indices` through cli.main in this process, writing
    row i into out/<i>; -> one record per row."""
    from metrilab.cli import main as cli_main

    records = []
    for i in indices:
        args = ROWS[i]
        row_out = os.path.join(out, str(i))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(args + ["--out", row_out, "--quiet"])
        files = {}
        for fname in sorted(os.listdir(row_out)):
            if fname != "manifest.json":
                with open(os.path.join(row_out, fname), "rb") as fh:
                    data = fh.read()
                files[fname] = {"sha256": hashlib.sha256(data).hexdigest(), "lines": line_digests(data)}
        records.append({"args": args, "exit": code, "stderr": err.getvalue(), "files": files})
    return records


def first_difference(path, want):
    """'line k: <text>' for the first line of the file at `path` whose digest
    differs from the stored ones, or a note on the line count."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    for k, line in enumerate(lines):
        if line_digests(line) != want["lines"][8 * k : 8 * k + 8]:
            return f"line {k + 1}: {line.decode(errors='replace')!r}"
    return f"{len(lines)} lines where {len(want['lines']) // 8} are stored"


def test_default_outputs_match_digests(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), str(tmp_path), *map(str, part)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for part in PARTS]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    got = []
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr
        got += json.loads(stdout)
    with open(DIGESTS) as fh:
        want = json.load(fh)
    assert [r["args"] for r in got] == [r["args"] for r in want] == ROWS
    for i, (g, w) in enumerate(zip(got, want)):
        row = " ".join(w["args"])
        assert (g["exit"], g["stderr"]) == (w["exit"], w["stderr"]), f"{row}: exit code or stderr changed"
        assert sorted(g["files"]) == sorted(w["files"]), f"{row}: other artifacts written"
        for fname, digest in w["files"].items():
            if g["files"][fname]["sha256"] != digest["sha256"]:
                where = first_difference(tmp_path / str(i) / fname, digest)
                raise AssertionError(f"{row}: {fname} differs from its digest at {where}")


if __name__ == "__main__":
    json.dump(run_rows(sys.argv[1], [int(i) for i in sys.argv[2:]] or range(len(ROWS))), sys.stdout, indent=1)
    sys.stdout.write("\n")
