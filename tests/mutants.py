"""Rerun the committed mutation list, so the oracles keep their teeth.

    python tests/mutants.py

Each entry of tests/mutants.json names a file, an old text that must occur
in it exactly once, a new text and the test files to run. For each entry
the committed tree (`git archive HEAD`) is unpacked into a fresh temporary
directory, the old text is replaced, and the named tests run with `-x` in a
child process under a timeout and an address-space limit. A mutant must make
them fail; an entry that says `equivalent: <reason>` must let them pass.
Exits 0 when every entry behaves so, and 1 otherwise, including when an old
text no longer matches. Not part of tier-1: pytest does not collect it.
"""

import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tests" / "mutants.json"
TIMEOUT_S = 600
ADDRESS_SPACE = 4 << 30  # bytes, for the test process and the runs it starts


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(entry, archive):
    """(ok, verdict) for one entry: the mutant is applied to a fresh copy of
    the archive and its tests run there."""
    with tempfile.TemporaryDirectory(prefix="metrilab-mutant-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        path = pathlib.Path(tmp, entry["file"])
        text = path.read_text()
        if text.count(entry["old"]) != 1:
            return False, f"old text occurs {text.count(entry['old'])} times in {entry['file']}"
        path.write_text(text.replace(entry["old"], entry["new"]))
        env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *entry["tests"]]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
        except subprocess.TimeoutExpired:
            return False, f"no result within {TIMEOUT_S} s"
    tail = "\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:])
    if "equivalent" in entry:
        return proc.returncode == 0, "passes (equivalent)" if proc.returncode == 0 else f"fails:\n{tail}"
    # pytest exits 1 when a test failed; 2 and above are errors of the run itself
    if proc.returncode == 1:
        return True, "caught"
    return False, "survived" if proc.returncode == 0 else f"pytest exit {proc.returncode}:\n{tail}"


def main():
    entries = json.loads(MUTANTS.read_text())
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, capture_output=True, check=True).stdout
    bad = 0
    for entry in entries:
        start = time.monotonic()
        ok, verdict = _run(entry, archive)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {entry['name']}: {verdict} ({time.monotonic() - start:.1f} s)",
              flush=True)
    print(f"{len(entries) - bad}/{len(entries)} mutants as recorded")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
