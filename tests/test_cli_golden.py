"""Byte-for-byte text output of the README command list.

The golden file holds the text stdout of every command in README's
"Command line" section plus the two ``--fitted`` listings.  Regenerate it
only for an intended output change, with
``PYTHONPATH=src python tests/test_cli_golden.py``, and review the diff.
"""

import contextlib
import io
import shlex
import sys
import tempfile
from pathlib import Path

from casecontrol import emit
from casecontrol.cli import main
from casecontrol.data import bundled_table

GOLDEN = Path(__file__).with_name("golden") / "cli_text.txt"

# ``lvcr.csv`` is the (L, V, C, R) margin of the bundled table.
COMMANDS = [
    "measure --pair L,V",
    "measure --pair L,V --given C=1,R=0",
    "marginal --keep L,V --given C=0,R=0",
    "fit-loglinear --slice L=1 --generators 'V,C,R;C,A;E'",
    "fit-loglinear --slice L=1 --generators 'V,C,R;C,A;E' --fitted",
    "fit-loglinear --closed-form --data lvcr.csv",
    "fit-logit --formula 'L : V*C*R + A*E' --or-pair L,V --or-given C,R",
    "smooth --case 'V,C,R;C,A;E' --control 'V,C;A,E;E,R' --or-factor V",
    "smooth --case 'V,C,R;C,A;E' --control 'V,C;A,E;E,R' --fitted",
    "select --slice L=1 --alpha 0.2",
    "graph-check --bundled-graph vcrae_controls --cliques --separates 'V | A,E | C,R'",
    "collapse --slice L=0 --pair E,A --over R --alpha 0.05",
    "reproduce",
]


def render(workdir: Path) -> str:
    """Run every command in ``workdir`` and join the headed stdouts."""
    lvcr = workdir / "lvcr.csv"
    lvcr.write_text(emit(bundled_table().marginalize({"L", "V", "C", "R"})),
                    encoding="utf-8")
    chunks = []
    for command in COMMANDS:
        argv = [str(lvcr) if a == "lvcr.csv" else a for a in shlex.split(command)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        chunks.append(f"$ casecontrol {command}  # exit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_text_output_matches_golden(tmp_path):
    assert render(tmp_path) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(render(Path(tmp)), encoding="utf-8")
    sys.exit(0)
