"""scipy is loaded only by the sparse icosphere spectrum.

Importing ``scipy.sparse.linalg`` takes most of a cold ``legspec`` start,
and only the shift-invert eigensolve of the icosphere's finer levels (5
and 6) needs it; levels 3 and 4, the default among them, are solved
densely with numpy.  Each check runs the CLI in a fresh interpreter,
since this process has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs ``legspec.cli.main`` on each argument list in argv[2] (JSON), writing
# reports under argv[1], and prints the exit codes and the scipy modules
# loaded by the end.
_SCRIPT = """
import json, sys
import legspec.cli

out, runs = sys.argv[1], json.loads(sys.argv[2])
codes = [legspec.cli.main(args + ["--output", f"{out}/{i}.json"])
         for i, args in enumerate(runs)]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def _run_fresh(tmp_path, runs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path), json.dumps(runs)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_scipy_stays_unloaded_outside_the_icosphere_spectrum(tmp_path):
    runs = [["--list-targets"]] + [
        ["--suite", suite]
        for suite in ("legendrian-geometry", "moment-family", "nomizu-family",
                      "relation", "sasaki-axioms")
    ] + [["--suite", "spectrum", "--immersion", "great-circle-s3"]]
    result = _run_fresh(tmp_path, runs)
    assert result["codes"] == [0] * len(runs)
    assert result["scipy"] == []


def test_default_and_dense_icosphere_spectra_load_no_scipy(tmp_path):
    sphere = ["--suite", "spectrum", "--immersion", "geodesic-sphere-n2"]
    result = _run_fresh(tmp_path, [sphere, sphere + ["--resolution", "3"]])
    assert result["codes"] == [0, 0]
    assert result["scipy"] == []


def test_icosphere_spectrum_loads_scipy(tmp_path):
    result = _run_fresh(
        tmp_path, [["--suite", "spectrum", "--immersion", "geodesic-sphere-n2",
                    "--resolution", "5"]]
    )
    assert result["codes"] == [0]
    assert "scipy.sparse.linalg" in result["scipy"]
