"""Import-weight guard: the runtime packages must not pull in networkx.

networkx is a dev-only test oracle (see ``test_graph_oracle.py``); importing
it costs about 18 MB of resident memory, which every serving replay would pay
again if a runtime module started importing it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path


def test_runtime_imports_leave_networkx_out():
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = "import sys, repro.serving, repro.core; print('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.stdout.strip() == "False"
