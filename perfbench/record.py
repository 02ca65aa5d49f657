"""Record the benchmark's baseline and noise: two sets of seeded runs per workload.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

For every workload of BENCHMARK.json and each of two sets, runs
`run.py --trace 0` once per seed at the file's run_seconds, then one
`run.py --trace 1` at seed 0.  Writes the measured commit and Python; per
set, every run's end-to-end values and, per metric, the median, quartiles
and spread (interquartile range over median, from
`statistics.quantiles(values, n=4)`) and the set's traced metrics; the
second set's median drift from the first's; and, per workload, every count
of the two traced runs that must repeat, with the expected ones checked.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402

SETS = 2
TRACE_SEED = 0
# traffic the workloads are known to make; a traced run that differs is a finding
EXPECTED_COUNTS = {
    "blowup": {"carries.sum_estimate.calls": 6},
    "substitution": {"twists.beta_build.calls": 131, "skew.star.calls": 25},
}
NOT_REPORTED = {
    "padics.padic_binom": "imported by cli.py but called on no CLI path; left out rather than reported as a zero",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["run_s"] = round(time.monotonic() - t0, 2)
    return out


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values)}


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_set(workload: str, seeds: list[int], bench: dict, k: int) -> dict:
    names = [m["name"] for m in bench["end_to_end"]]
    runs = []
    for seed in seeds:
        out = run_once(workload, seed, bench["run_seconds"], 0)
        runs.append({"seed": seed, "run_s": out["run_s"], "correct": out["correct"],
                     "attempted": out["attempted"], "failed": out["failed"],
                     **{name: out["metrics"][name]["value"] for name in names}})
    stats = {name: summary([r[name] for r in runs]) for name in names}
    for name, m in stats.items():
        print(f"{workload} set {k} {name}: median {m['median']:.6g} spread {m['spread']:.4f}", flush=True)
    traced = run_once(workload, TRACE_SEED, bench["run_seconds"], 1)
    return {
        "all_correct": all(r["correct"] for r in runs), "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs), "summary": stats, "runs": runs,
        "trace": {"seed": TRACE_SEED, "correct": traced["correct"], "run_s": traced["run_s"],
                  "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
    }


def confirmed_counts(workload: str, sets: list[dict], bench: dict) -> dict:
    """Every count of the traced runs, per set, and whether all repeat exactly."""
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    values = {name: [s["trace"]["metrics"][name] for s in sets] for name in counts}
    expected = {name: {"want": want, "got": values[name], "ok": all(v == want for v in values[name])}
                for name, want in EXPECTED_COUNTS.get(workload, {}).items()}
    return {"expected": expected,
            "all_repeat": all(len(set(v)) == 1 for v in values.values()),
            "differing": {name: v for name, v in values.items() if len(set(v)) > 1},
            "nonzero": {name: v[0] for name, v in values.items() if v[0]}}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=str(ROOT / ".perfbench" / "record.json"))
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    env = environment()
    record = {
        "about": (f"Written by `python3 perfbench/record.py --seeds {args.seeds}`: per workload, "
                  f"{SETS} sets, each of one `run.py --trace 0` run per seed at run_seconds "
                  f"{bench['run_seconds']} and one `--trace 1` run at seed {TRACE_SEED}. run_seconds is "
                  "a minimum: every run makes at least two passes, so a blowup or substitution run "
                  "lasts about twice one pass (run_s)."),
        "measured": {"commit": env["commit"], "src_sha256": env["src_sha256"], "python": env["python"],
                     "machine": platform.machine(), "platform": platform.platform(),
                     "cpus": os.cpu_count(), "date": datetime.date.today().isoformat(),
                     "run_seconds": bench["run_seconds"], "seeds": seeds},
        "noise": {}, "confirmed_counts": {}, "not_reported": NOT_REPORTED, "workloads": {},
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    for w in bench["workloads"]:
        workload = w["name"]
        sets = [record_set(workload, seeds, bench, k + 1) for k in range(SETS)]
        walls = [r["wall_s"] for s in sets for r in s["runs"]]
        run_s = [r["run_s"] for s in sets for r in s["runs"]]
        record["noise"][workload] = {
            "spread": {name: [s["summary"][name]["spread"] for s in sets] for name in sets[0]["summary"]},
            "median_drift": {name: [s["summary"][name]["median"] / sets[0]["summary"][name]["median"] - 1
                                    for s in sets[1:]] for name in sets[0]["summary"]},
            "wall_s_min_max": [min(walls), max(walls)],
            "run_s_min_max": [min(run_s), max(run_s)],
        }
        record["confirmed_counts"][workload] = confirmed_counts(workload, sets, bench)
        record["workloads"][workload] = {"sets": sets}
        out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
