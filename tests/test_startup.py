"""Startup contract: what a bare ``import repro.cli`` loads.

Every command pays for this import before it does any work, so the
heavy scientific stack stays out of it.  Unlike the AST-only checks in
``test_layering.py`` this one imports the package, so it needs the
runtime dependencies (numpy) installed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_neither_scipy_nor_networkx():
    """scipy loads lazily where an LP is solved, and networkx is not a
    dependency at all."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = (
        "import sys, repro.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} "
        "& {'scipy', 'networkx'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True,
        text=True, check=True,
    )
    assert result.stdout.strip() == "[]", result.stdout
