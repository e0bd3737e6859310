"""Golden artifacts: the CSV table byte for byte, the sidecar to 1e-12.

Each case runs a config through ``cli.run`` and compares both files with the
ones under ``tests/data``.  The table is printed at precision 12 and must
match exactly.  In the ``.diag.json`` sidecar, ints, flags, strings and nulls
must match exactly and floats to 1e-12 relative: they are printed in full,
and BLAS dot products may differ in the last bit between hosts.

The cases are the demo config, linear [0.3, 0.2, 0.4] at n=9 (166 (width,
phi) rows, boundary rows at both ends) and Manneville-Pomeau beta=1/2 at
n=12 under the Lyapunov floor 0.5, with the flagged row alpha=0 and error
rows.  To regenerate after a deliberate change, run ``mfspec run`` on
``tests/data/<case>.json`` (or on the demo config with its output path set
to ``tests/data/demo.csv``) from the repository root.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from mfspec.cli import parse_config, run

DATA = Path(__file__).parent / "data"
DEMO = Path(__file__).parents[1] / "demos" / "spectrum_config.json"

CASES = {
    "demo": (DEMO, 0),
    "linear_three_n9": (DATA / "linear_three_n9.json", 0),
    "mp_half_n12_delta05": (DATA / "mp_half_n12_delta05.json", 2),
}


def _assert_close(got, want, where="diag"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_golden_files(case, tmp_path):
    path, code = CASES[case]
    config = parse_config(path.read_text())
    out = tmp_path / f"{case}.csv"
    config = replace(config, output=replace(config.output, path=str(out)))
    assert config.output.precision == 12
    assert run(config) == code
    assert out.read_text() == (DATA / f"{case}.csv").read_text()
    _assert_close(json.loads(Path(f"{out}.diag.json").read_text()),
                  json.loads((DATA / f"{case}.csv.diag.json").read_text()))
