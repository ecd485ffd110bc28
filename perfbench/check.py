"""Output check for one benchmark pass.

Every pass is checked for
- the documented exit code of each subcommand;
- the artifact files each subcommand writes;
- physical invariants that hold for every seed: exp4 conserves total energy,
  every gate row passes, erasure heat is at least the Landauer bound, and the
  bitflip first law closes;
- the `checks` bound suite, where a failing `tur_walk_*` row is judged
  against the exact expectation of the biased walk (see `judge_tur_row`).

For seeds with a stored reference (references/seed-NNNN.json.gz) every
artifact is also compared cell by cell: integer, boolean and label cells
must match exactly, float cells within |new - ref| <= ATOL + RTOL * |ref|.
Byte-identical artifacts are counted separately.
"""

import gzip
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

RTOL = 1e-6
ATOL = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

# Artifacts each subcommand writes (manifest.json is excluded from the
# byte-identity guarantee and from the check).
ARTIFACTS = {
    "bitflip": ("bitflip.csv", "bitflip.meta.json", "bitflip.report.json"),
    "erasure": ("erasure.csv", "erasure.meta.json", "erasure.report.json"),
    "exp1": ("exp1.csv", "exp1.meta.json"),
    "exp2": ("exp2.csv", "exp2.meta.json"),
    "exp3": ("exp3.csv", "exp3.meta.json"),
    "exp4": ("exp4.csv", "exp4.meta.json"),
    "gates": ("gates.csv", "gates.meta.json"),
    "checks": ("checks.csv", "checks.json", "checks.meta.json"),
    "monitor": ("monitor.json",),
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 4

_INT = re.compile(r"^-?\d+$")


@dataclass
class PassCheck:
    problems: list = field(default_factory=list)
    false_alarms: int = 0
    compared: int = 0        # artifacts compared with a stored reference
    identical: int = 0       # of those, byte-identical to it
    nbytes: int = 0          # bytes of all artifacts of the pass
    digests: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.problems


def reference_path(seed):
    return os.path.join(REFERENCE_DIR, f"seed-{seed:04d}.json.gz")


def load_reference(seed):
    """{"<subcommand>/<file>": text} for a seed with a stored reference, else None."""
    path = reference_path(seed)
    if not os.path.exists(path):
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def write_reference(seed, artifacts):
    with open(reference_path(seed), "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
            gz.write(json.dumps(artifacts, sort_keys=True, indent=0).encode())


def read_artifacts(out_dir, subcommands):
    """{"<subcommand>/<file>": text} of the artifacts present, plus the missing names."""
    found, missing = {}, []
    for sub in subcommands:
        for name in ARTIFACTS[sub]:
            rel = f"{sub}/{name}"
            path = os.path.join(out_dir, sub, name)
            if os.path.exists(path):
                with open(path) as fh:
                    found[rel] = fh.read()
            else:
                missing.append(rel)
    return found, missing


# ---------------------------------------------------------------------------
# cell-by-cell comparison
# ---------------------------------------------------------------------------

def _cells_match(ref, new):
    if ref == new:
        return True
    if isinstance(ref, bool) or isinstance(new, bool):
        return False
    if isinstance(ref, int) and isinstance(new, int):
        return False
    if isinstance(ref, (int, float)) and isinstance(new, (int, float)):
        if math.isnan(ref) or math.isnan(new) or math.isinf(ref) or math.isinf(new):
            return math.isnan(ref) and math.isnan(new)
        return abs(new - ref) <= ATOL + RTOL * abs(ref)
    return False


def _csv_cell(text):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _compare_json(ref, new, where, problems):
    if isinstance(ref, dict) and isinstance(new, dict):
        for key in sorted(set(ref) | set(new)):
            if key not in ref or key not in new:
                problems.append(f"{where}.{key}: key only in {'reference' if key in ref else 'output'}")
            else:
                _compare_json(ref[key], new[key], f"{where}.{key}", problems)
    elif isinstance(ref, list) and isinstance(new, list):
        if len(ref) != len(new):
            problems.append(f"{where}: length {len(new)} != reference {len(ref)}")
        else:
            for i, (r, n) in enumerate(zip(ref, new)):
                _compare_json(r, n, f"{where}[{i}]", problems)
    elif not _cells_match(ref, new):
        problems.append(f"{where}: {new!r} != reference {ref!r}")


def compare_artifact(rel, ref_text, new_text):
    """Problems found comparing one artifact with its reference, cell by cell."""
    problems = []
    if rel.endswith(".csv"):
        ref_lines = ref_text.splitlines()
        new_lines = new_text.splitlines()
        if len(ref_lines) != len(new_lines) or ref_lines[:1] != new_lines[:1]:
            return [f"{rel}: header or row count differs from the reference"]
        for r, (a, b) in enumerate(zip(ref_lines[1:], new_lines[1:]), start=1):
            ra, nb = a.split(","), b.split(",")
            if len(ra) != len(nb):
                problems.append(f"{rel} row {r}: {len(nb)} cells != reference {len(ra)}")
                continue
            for c, (x, y) in enumerate(zip(ra, nb)):
                if not _cells_match(_csv_cell(x), _csv_cell(y)):
                    problems.append(f"{rel} row {r} col {c}: {y} != reference {x}")
    else:
        _compare_json(json.loads(ref_text), json.loads(new_text), rel, problems)
    return problems


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _csv_rows(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def walk_expectation(forward, backward, n_steps):
    """Exact Var(J)/E[J]^2 and the bound 2/Sigma for the hop-counting
    current of a walk with per-step hop probabilities forward/backward."""
    drift = forward - backward
    var = n_steps * ((forward + backward) - drift * drift)
    lhs = var / (n_steps * drift) ** 2
    rhs = 2.0 / (n_steps * drift * math.log(forward / backward))
    return lhs, rhs


def judge_tur_row(row, cfg):
    """True when a failing tur_walk row is a sampling false alarm: the exact
    walk satisfies the bound, the row's bound equals the exact one, and the
    sampled ratio lies within 5 standard errors of the exact ratio."""
    lhs, rhs = walk_expectation(cfg["tur_forward"], cfg["tur_backward"], cfg["tur_steps"])
    n = cfg["tur_walkers"]
    # relative standard error of var/mean^2: sample variance plus squared mean
    se = lhs * math.sqrt(2.0 / (n - 1) + 4.0 * lhs / n)
    return (lhs >= rhs
            and abs(float(row["rhs"]) - rhs) <= 1e-9 * rhs
            and abs(float(row["lhs"]) - lhs) <= 5.0 * se)


def _check_invariants(sub, files, code, result):
    p = result.problems
    if sub == "bitflip":
        for i, row in enumerate(_csv_rows(files["bitflip/bitflip.csv"])):
            w, q, du = (float(row[k]) for k in ("work_total", "heat_env", "dU_sys"))
            if abs(w - du - q) > 1e-9 * max(1.0, abs(w), abs(q)):
                p.append(f"bitflip row {i}: first law residual {w - du - q:.3g}")
        report = json.loads(files["bitflip/bitflip.report.json"])
        if abs(report["first_law_residual"]) > 1e-9 * max(1.0, abs(report["work_total"])):
            p.append(f"bitflip report: first law residual {report['first_law_residual']:.3g}")
    elif sub == "erasure":
        for i, row in enumerate(_csv_rows(files["erasure/erasure.csv"])):
            if float(row["heat_env"]) < float(row["landauer_bound"]):
                p.append(f"erasure row {i}: heat {row['heat_env']} below Landauer bound {row['landauer_bound']}")
    elif sub == "exp4":
        total = json.loads(files["exp4/exp4.meta.json"])["total_energy"]
        for row in _csv_rows(files["exp4/exp4.csv"]):
            if int(row["total_energy"]) != total:
                p.append(f"exp4 t={row['t']}: total energy {row['total_energy']} != {total}")
    elif sub == "gates":
        for row in _csv_rows(files["gates/gates.csv"]):
            if row["passed"] != "1":
                p.append(f"gates: {row['gate']} noise={row['noise']} failed")
    elif sub == "checks":
        cfg = json.loads(files["checks/checks.meta.json"])["config"]
        failing = [r for r in _csv_rows(files["checks/checks.csv"]) if r["satisfied"] != "1"]
        for row in failing:
            if row["name"].startswith("tur_walk_") and judge_tur_row(row, cfg):
                result.false_alarms += 1
            else:
                p.append(f"checks: {row['name']} failed (slack {row['slack']})")
        expected = EXIT_CHECK_FAILED if failing else EXIT_OK
        if code != expected:
            p.append(f"checks: exit code {code}, expected {expected}")
        return
    elif sub == "monitor":
        report = json.loads(files["monitor/monitor.json"])
        if report["total"] != sum(report["counts"].values()):
            p.append("monitor: total differs from the sum of counts")
    if code != EXIT_OK:
        p.append(f"{sub}: exit code {code}, expected {EXIT_OK}")


def check_pass(out_dir, subcommands, exit_codes, reference=None):
    """Check one pass's artifacts; `reference` is a load_reference() result."""
    result = PassCheck()
    files, missing = read_artifacts(out_dir, subcommands)
    result.problems += [f"{rel}: missing" for rel in missing]
    for rel, text in files.items():
        data = text.encode()
        result.nbytes += len(data)
        result.digests[rel] = hashlib.sha256(data).hexdigest()
    for sub in subcommands:
        code = exit_codes.get(sub)
        if all(f"{sub}/{name}" in files for name in ARTIFACTS[sub]):
            try:
                _check_invariants(sub, files, code, result)
            except (KeyError, ValueError, IndexError) as exc:
                result.problems.append(f"{sub}: malformed artifact ({exc!r})")
        elif code != EXIT_OK:
            result.problems.append(f"{sub}: exit code {code}")
    if reference is not None:
        for rel in sorted(k for k in reference if k.split("/")[0] in subcommands):
            if rel not in files:
                continue  # already reported missing
            result.compared += 1
            if files[rel] == reference[rel]:
                result.identical += 1
            else:
                try:
                    result.problems += compare_artifact(rel, reference[rel], files[rel])
                except ValueError as exc:
                    result.problems.append(f"{rel}: unreadable ({exc})")
    return result
