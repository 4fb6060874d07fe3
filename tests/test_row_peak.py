"""tools/row_peak.py runs one sweep row in a fresh process and prints one JSON line."""

import json
import subprocess
import sys

from .conftest import REPO_ROOT


def test_prints_the_revision_times_and_peak_of_one_row():
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "row_peak.py"), "3"],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    (line,) = done.stdout.strip().splitlines()
    result = json.loads(line)
    assert set(result) == {"revision", "n_qubits", "evolve_s", "report_s", "row_s", "peak_rss_mb"}
    assert result["n_qubits"] == 3
    assert 0 < result["evolve_s"] and 0 < result["report_s"]
    assert result["evolve_s"] + result["report_s"] <= result["row_s"]
    assert result["peak_rss_mb"] > 0
