"""The benchmark's workload process must still start and run an op.

`perfbench/run.py` spawns `perfbench/worker.py` once per pass: the worker
imports padicops from the checkout's `src/`, builds and validates the
`RunConfig` of `default.toml`, runs its ops through `padicops.cli.main` and
prints one JSON line.  run.py treats a non-zero exit or a last line that is
not JSON as a failed workload, so this spawns the worker as run.py does,
once set-up only and once with one op.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spawn(spec: dict) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_setup_only_pass():
    out = spawn({"setup_only": True})
    assert "ready" in out and "ops" not in out and out["peak_rss_mb"] > 0


def test_one_op_pass():
    argv = ["qexp-check", "--config", str(ROOT / "default.toml")]
    out = spawn({"ops": [argv], "trace": False})
    (op,) = out["ops"]
    assert op["argv"] == argv and op["code"] == 0 and op["error"] is None, op["error"]
    assert json.loads(op["stdout"])["verdict"] == "pass"
    assert out["start"] <= out["end"]
