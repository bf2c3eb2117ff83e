"""Byte-identity of the paper commands' outputs.

``golden_outputs.json`` holds the sha256 of every output file except
``run.log`` that ``calibrate_s``, ``fig1``-``fig5``, ``oscillators`` and
``properties --trials 20`` write at CLI seed 1, with the numpy and scipy
versions they were recorded under.  Another numpy or scipy may round
differently in the last place, so on other versions the test is skipped.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from nhlab.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_outputs.json").read_text())
COMMANDS = ("calibrate_s", "fig1", "fig2", "fig3", "fig4", "fig5", "oscillators", "properties")


@pytest.mark.skipif((np.__version__, scipy.__version__) != (GOLDEN["numpy"], GOLDEN["scipy"]),
                    reason=f"digests recorded under numpy {GOLDEN['numpy']} and scipy "
                           f"{GOLDEN['scipy']}; other versions may round differently")
def test_paper_outputs_match_recorded_digests(tmp_path):
    for command in COMMANDS:
        argv = [command, "--out", str(tmp_path), "--seed", str(GOLDEN["seed"])]
        if command == "properties":
            argv += ["--trials", str(GOLDEN["trials"])]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, command
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir()) if p.name != "run.log"}
    assert digests == GOLDEN["digests"]
