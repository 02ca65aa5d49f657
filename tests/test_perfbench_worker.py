"""The benchmark's workload process must still start and run an op.

`perfbench/run.py` spawns `perfbench/worker.py` once per pass: the worker
imports padicops from the checkout's `src/`, builds and validates the
`RunConfig` of `default.toml`, runs its ops through `padicops.cli.main` and
prints one JSON line.  run.py treats a non-zero exit or a last line that is
not JSON as a failed workload, so this spawns the worker as run.py does,
once set-up only and once with one op.

run.py also takes the median of the host-speed probe times (`probe_s`), and
the probe first fires 0.25 s into a pass: a workload pass shorter than that
leaves no sample, and run.py exits 1 on it.  The probe-floor test runs each
workload's full pass once, untraced, as run.py does (about 3 s in all).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
from worker import PROBE_EVERY_S  # noqa: E402


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


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_pass_outlasts_the_probe_floor(workload):
    out = spawn({"ops": run.ops_for(workload, 0), "trace": False})
    for op in out["ops"]:
        assert op["code"] == 0, (op["argv"], op["error"])
    assert out["probe_s"], (
        f"the {workload} pass took {out['end'] - out['start']:.3f} s, under the probe floor of "
        f"{PROBE_EVERY_S} s: no host-speed sample, so perfbench/run.py cannot take its median"
    )
