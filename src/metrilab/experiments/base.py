"""Result tables and deterministic serialization shared by the experiment runs.

CSV cells are rendered with a fixed %.12g float format and JSON sidecars are
sorted-key pretty-printed, so identical (config, seed) pairs produce
byte-identical artifacts.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

FLOAT_FMT = "%.12g"


def format_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % float(v)
    return str(v)


@dataclass
class ExperimentResult:
    name: str
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, **values):
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing declared metrics: {missing}")
        extra = [k for k in values if k not in self.columns]
        if extra:
            raise ValueError(f"row carries undeclared metrics: {extra}")
        self.rows.append(dict(values))

    def column(self, name):
        return np.array([row[name] for row in self.rows])

    def to_csv_text(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_result(result: ExperimentResult, out_dir):
    """Write <name>.csv plus a deterministic <name>.meta.json sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{result.name}.csv")
    with open(csv_path, "w") as fh:
        fh.write(result.to_csv_text())
    meta_path = os.path.join(out_dir, f"{result.name}.meta.json")
    write_json(meta_path, {"name": result.name, "columns": result.columns, **result.metadata})
    return csv_path, meta_path


def sweep(fn, items, threads):
    """[fn(item) for item in items], in item order, through a pool of `threads`
    worker threads when threads > 1.

    One thread runs inline: a pool worker's malloc arena keeps the freed sweep
    buffers resident for the rest of the process.
    """
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, items))
