"""Byte identity through stored digests: every row of ROWS runs through the
CLI, and its exit code, stderr and the SHA-256 of every artifact it writes,
manifest.json aside, must equal its entry in
`tests/golden/default/digests.json`. The rows are:

- every subcommand of `cli.HANDLERS` at its default config and seed 0, plus
  `checks` at seed 5, whose known TUR false alarm exits 4, and `bitflip` and
  `erasure` on `tests/golden/default/uneven.cfg`;
- every subcommand on its reduced config `tests/golden/cli/<name>.cfg` at
  seed 3, and the sweeps (`checks`, `exp1`, `exp3`) there at three threads
  as well.

The rows are built from `cli.HANDLERS`, so a subcommand without stored
digests fails. They run once, in two concurrent subprocesses, and each row
is then one test case. On a mismatch the case names the file and its
first differing line, found through the per-line digests stored beside each
file's SHA-256.

The rows name the config by a path relative to the repository root, and the
rows run from there. To regenerate after a deliberate output change (in a
commit of its own), from the repository root:

    PYTHONPATH=src python tests/test_default_digests.py "$(mktemp -d)" \
        > tests/golden/default/digests.json

Row indices after the output directory run only those rows.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from metrilab.cli import HANDLERS, main as cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "golden", "default", "digests.json")

ROWS = [[name, "--seed", "0"] for name in sorted(HANDLERS)]
ROWS.append(["checks", "--seed", "5"])
# an odd erasure ensemble and partial snapshot chunks, which no default size takes
ROWS += [[name, "--seed", "0", "--config", "tests/golden/default/uneven.cfg"] for name in ("bitflip", "erasure")]
# reduced configs at seed 3; the subcommands whose rows run through
# experiments.base.sweep also run at three threads
REDUCED = len(ROWS)
for name in sorted(HANDLERS):
    ROWS.append([name, "--seed", "3", "--config", f"tests/golden/cli/{name}.cfg"])
    if name in ("checks", "exp1", "exp3"):
        ROWS.append(ROWS[-1] + ["--threads", "3"])
# the default bitflip takes about a third of the rows' time, so it runs with
# the reduced rows in one subprocess, beside one that runs the rest
PARTS = [[0, *range(REDUCED, len(ROWS))], list(range(1, REDUCED))]


def line_digests(data):
    """Eight hex digits of each line's SHA-256, concatenated."""
    return "".join(hashlib.sha256(line).hexdigest()[:8] for line in data.splitlines(keepends=True))


def run_rows(out, indices):
    """Run the rows at `indices` through cli.main in this process, writing
    row i into out/<i>; -> one record per row."""
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


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(output directory, one record per row in ROWS order) from one run of
    every row, in the subprocesses of PARTS."""
    out = tmp_path_factory.mktemp("digests")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    procs = [subprocess.Popen([sys.executable, os.path.abspath(__file__), str(out), *map(str, part)],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for part in PARTS]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    got = [None] * len(ROWS)
    for proc, part, (stdout, stderr) in zip(procs, PARTS, outputs):
        assert proc.returncode == 0, stderr
        for i, record in zip(part, json.loads(stdout)):
            got[i] = record
    return out, got


@pytest.fixture(scope="module")
def stored():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_rows_are_the_stored_rows(runs, stored):
    """Every subcommand has its rows, and the stored file holds exactly them."""
    _, got = runs
    assert [r["args"] for r in got] == [r["args"] for r in stored] == ROWS


# a row's id is its args, with the config named relative to tests/golden
@pytest.mark.parametrize("i", range(len(ROWS)), ids=[" ".join(args).replace("tests/golden/", "") for args in ROWS])
def test_row_digests(runs, stored, i):
    """The row's exit code, stderr and artifacts equal its stored digests."""
    out, got = runs
    g = got[i]
    w = next((r for r in stored if r["args"] == ROWS[i]), None)
    assert w is not None, "no stored digests for this row"
    assert (g["exit"], g["stderr"]) == (w["exit"], w["stderr"]), "exit code or stderr changed"
    assert sorted(g["files"]) == sorted(w["files"]), "other artifacts written"
    wrong = [f"{fname} differs from its digest at {first_difference(out / str(i) / fname, digest)}"
             for fname, digest in w["files"].items() if g["files"][fname]["sha256"] != digest["sha256"]]
    assert not wrong, "; ".join(wrong)


if __name__ == "__main__":
    json.dump(run_rows(sys.argv[1], [int(i) for i in sys.argv[2:]] or range(len(ROWS))), sys.stdout, indent=1)
    sys.stdout.write("\n")
