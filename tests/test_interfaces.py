"""External-surface contracts: loadable circuit text, truth-table CSV rows,
per-trial CSV, field dumps, and order-deterministic threaded sweeps. The
metrilab names this file imports are the package's declared external
surface, and every other top-level name must be reached from code that runs."""

import ast
import pathlib
import re

import numpy as np
import pytest

from metrilab.cli import main as cli_main
from metrilab.circuits import LogicalReadout, load_circuit, load_truth_table, verify_truth_table
from metrilab.experiments import Exp1Config, Exp3Config, run_exp1, run_exp3
from metrilab.metrics import MetricRecord, consciousness_record, intelligence_record

AND_TEXT = """
circuit and-gate
node  y activation gain=8 bias=-1.4
input in1 y 1.0
input in2 y 1.0
encoding out y
"""

AND_TABLE_CSV = """in1,in2,out:out
0,0,0
0,1,0
1,0,0
1,1,1
"""


class TestCircuitText:
    def test_load_and_verify(self):
        circ = load_circuit(AND_TEXT)
        table = load_truth_table(AND_TABLE_CSV)
        res = verify_truth_table(circ, table, LogicalReadout())
        assert res.passed

    def test_flipflop_from_text(self):
        text = """
        node A activation gain=8
        node B activation gain=8
        edge A A 2.0
        edge B B 2.0
        edge A B -2.0
        edge B A -2.0
        input set A 1.0
        input reset B 1.0
        encoding q A
        encoding qbar B
        """
        circ = load_circuit(text)
        assert circ.dim == 2 and set(circ.encoding_ports) == {"q", "qbar"}

    def test_undeclared_node_rejected(self):
        with pytest.raises(ValueError):
            load_circuit("node a activation\nedge a ghost 1.0\nencoding out a\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError):
            load_circuit("wire a b 1.0\n")

    def test_truth_table_requires_expectations(self):
        with pytest.raises(ValueError):
            load_truth_table("in1,in2\n0,0\n")

    @pytest.mark.parametrize("line", [
        "node a", "edge a b", "input in1 a", "encoding out", "circuit",
        "node a activation gain", "node a activation gain=high", "node a bogus", "edge a b heavy",
        "edge b b 1.0 junk", "input in1 b 1.0 junk", "encoding out b extra", "circuit and extra",
    ])
    def test_malformed_circuit_line_named(self, line):
        with pytest.raises(ValueError, match="^line 3: "):
            load_circuit(f"# header\nnode b activation\n{line}\nencoding out b\n")

    @pytest.mark.parametrize("text, match", [
        ("", "empty"),
        ("\n  \n", "empty"),
        ("in1,out:out\n\n0,1\n0\n", "^line 4: "),
        ("in1,out:out\n0,high\n", "^line 2: "),
        ("in1,out:out\nlow,1\n", "^line 2: "),
        ("in1,out:out\n0,2\n", "^line 2: expected labels must be 0 or 1"),
        ("in1,out:out\n0,0\n1,-1\n", "^line 3: expected labels must be 0 or 1"),
    ])
    def test_malformed_truth_table_named(self, text, match):
        with pytest.raises(ValueError, match=match):
            load_truth_table(text)


class TestPerTrialCSV:
    def test_bitflip_trials_csv(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[bitflip]\ntrials = 50\ndurations = [5.0]\nper_trial_csv = true\n")
        out = tmp_path / "out"
        assert cli_main(["bitflip", "--config", str(cfg), "--seed", "3",
                         "--out", str(out), "--quiet"]) == 0
        lines = (out / "bitflip.trials.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,work,heat,final_state,final_label"
        assert len(lines) == 51


class TestFieldDumps:
    def test_exp4_save_fields_writes_grids(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("[exp4]\nheight = 64\nwidth = 64\nsteps = 30\nradius = 9\n"
                       "peak = 120\nsave_fields = true\n")
        out = tmp_path / "out"
        assert cli_main(["exp4", "--config", str(cfg), "--seed", "0",
                         "--out", str(out), "--quiet"]) == 0
        dumps = sorted(out.glob("field_t*.npy"))
        assert len(dumps) == 3
        grid = np.load(dumps[0])
        assert grid.shape == (64, 64) and grid.dtype == np.int64


class TestThreadedSweeps:
    def test_exp1_threads_preserve_order_and_bytes(self):
        cfg = Exp1Config(dim=40, rot_pairs=19, steps=400, k_lags=5,
                         lambda_grid=tuple(np.logspace(-3, 1, 6)))
        a = run_exp1(cfg, seed=4, threads=1)
        b = run_exp1(cfg, seed=4, threads=4)
        assert a.to_csv_text() == b.to_csv_text()

    def test_exp3_threads_preserve_order_and_bytes(self):
        cfg = Exp3Config(n_reservoir=60, washout=50, train=200, test=200,
                         rho_grid=tuple(np.linspace(0.1, 1.8, 6)))
        a = run_exp3(cfg, seed=4, threads=1)
        b = run_exp3(cfg, seed=4, threads=3)
        assert a.to_csv_text() == b.to_csv_text()


class TestMetricRecords:
    def test_records_carry_components(self):
        r = intelligence_record(2.0, 4.0, horizon=(0.0, 10.0))
        assert r.value == 0.5 and r.components["I_irr"] == 4.0
        k = consciousness_record(1.0, np.log(2.0))
        assert k.components["I_preserved"] == pytest.approx(np.log(2.0))

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ValueError):
            MetricRecord("bad", float("nan"))

    def test_negative_information_component_rejected(self):
        with pytest.raises(ValueError):
            MetricRecord("bad", 1.0, components={"I_irr": -1.0})


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _uses(tree, strings=False):
    """Every name a syntax tree loads, imports or reads as an attribute, plus
    the words of its string constants when `strings` is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(re.findall(r"\w+", node.value))
    return out


def _defined(stmt):
    """The names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


class TestReachability:
    def test_every_top_level_name_is_reached(self):
        # A top-level name of src/metrilab, private or public, is reached when
        # a root uses it, or when the definition of a reached name does. The
        # roots are the package's module-level statements that neither define
        # nor import (cli's __main__ call), perfbench (its tracer names targets
        # in strings), the acceptance criteria and the surface this file
        # imports. Names match by spelling alone, across modules; dunder names
        # such as __all__ are the interpreter's and are not checked.
        uses_of, roots = {}, set()
        for path in (ROOT / "src" / "metrilab").rglob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                names = _defined(stmt)
                for name in names:
                    uses_of.setdefault(name, set()).update(_uses(stmt))
                if not names and not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    roots |= _uses(stmt)
        for path in (ROOT / "perfbench").rglob("*.py"):
            roots |= _uses(ast.parse(path.read_text()), strings=True)
        roots |= _uses(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
        roots |= {alias.name for stmt in ast.parse(pathlib.Path(__file__).read_text()).body
                  if isinstance(stmt, ast.ImportFrom) and stmt.module.startswith("metrilab")
                  for alias in stmt.names}
        reached, todo = set(), list(roots & uses_of.keys())
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(uses_of[name] & uses_of.keys())
        unreached = sorted(n for n in uses_of.keys() - reached
                           if not (n.startswith("__") and n.endswith("__")))
        assert not unreached, f"top-level names nothing reaches: {', '.join(unreached)}"
