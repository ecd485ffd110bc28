"""External-surface contracts: loadable circuit text, truth-table CSV rows,
per-trial CSV, field dumps, and order-deterministic threaded sweeps."""

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
