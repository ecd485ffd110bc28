"""Stored reference outputs: each subcommand of `cli.HANDLERS` is run through
the CLI on a reduced config (`tests/golden/cli/<name>.cfg`, seed 3) and every
artifact it writes, manifest.json aside, must equal the stored bytes in
`tests/golden/cli/<name>/`, so a subcommand without a reference fails. The
sweeps run at one and at three threads against the same references.

To regenerate after a deliberate output change (in a commit of its own):

    PYTHONPATH=src python -m metrilab.cli <name> --seed 3 --quiet \
        --config tests/golden/cli/<name>.cfg --out tests/golden/cli/<name>
    rm tests/golden/cli/<name>/manifest.json
"""

import os

import pytest

from metrilab.cli import HANDLERS, main as cli_main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli")


# the subcommands whose rows run through experiments.base.sweep
SWEEPS = ("checks", "exp1", "exp3")


@pytest.mark.parametrize("name,threads", [
    (name, threads) for name in sorted(HANDLERS) for threads in ((1, 3) if name in SWEEPS else (1,))
])
def test_cli_outputs_match_stored_bytes(tmp_path, name, threads):
    out = tmp_path / "out"
    code = cli_main([name, "--config", os.path.join(GOLDEN, f"{name}.cfg"), "--seed", "3",
                     "--threads", str(threads), "--out", str(out), "--quiet"])
    assert code == 0
    ref_dir = os.path.join(GOLDEN, name)
    expected = sorted(os.listdir(ref_dir))
    assert sorted(os.listdir(out)) == sorted(expected + ["manifest.json"])
    for fname in expected:
        with open(os.path.join(ref_dir, fname), "rb") as fh:
            ref = fh.read()
        assert (out / fname).read_bytes() == ref, f"{name}/{fname} differs from the stored bytes"
