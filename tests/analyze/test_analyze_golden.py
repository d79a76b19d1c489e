"""Golden ``repro analyze --json`` reports.

The files under ``tests/data/analyze_golden/`` were captured from the
analyzer before the symmetric model, driver and L2 replay were folded
into the single CRSD ones.  The unified analyzer must reproduce every
byte: the plain reports pin the model, checkers and closed-form trace;
the ``--shards 4`` reports pin the L2 replay through shard
certification (``wang3`` also its scatter phase); the ``--sym`` report
pins the symmetric kind.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.matrices.generators import symmetric_banded
from repro.matrices.mmio import write_matrix_market

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "analyze_golden"
ARGS = ["--scale", "0.03", "--mrows", "32", "--json"]

CASES = {
    "kim1": ["kim1"] + ARGS,
    "wang3": ["wang3"] + ARGS,
    "kim1_shards4": ["kim1"] + ARGS + ["--shards", "4"],
    "wang3_shards4": ["wang3"] + ARGS + ["--shards", "4"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_crsd_report_matches_golden(case, capsys):
    assert main(["analyze"] + CASES[case]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{case}.json").read_text()


def test_sym_report_matches_golden(tmp_path, capsys):
    # the band the block-smoke CI job certifies
    band = symmetric_banded(1024, 7, np.random.default_rng(7))
    path = tmp_path / "symband.mtx"
    write_matrix_market(band, path)
    assert main(["analyze", str(path), "--sym", "--mrows", "64",
                 "--json"]) == 0
    assert (capsys.readouterr().out
            == (GOLDEN / "symband_sym.json").read_text())
