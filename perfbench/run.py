"""Verification benchmark for padicops: time to certificate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; nothing needs installing, since every
workload process imports padicops from the checkout's own `src/`.

A workload is a fixed list of `padicops` subcommands with `default.toml`;
together the three workloads are exactly the subcommands of
`padicops all --config default.toml`:

  blowup        sum-estimate, zeta-valuations (N = 6, 8, 10; no random input)
  substitution  beta-check, cocycle-check (the seed of default.toml)
  identities    kummer-table, qexp-check, ode-check, micro-inverse,
                dwork-check, star-props (--seed N)

Closed loop, one client: a pass runs the subcommands one after another in a
fresh workload process, through `padicops.cli.main`.  With `--trace 0` the
benchmark runs passes until `--seconds` have gone by, and at least two, and
reports the medians of

  wall_s         first subcommand's start to the last verdict emitted,
                 scaled to a fixed host speed (see below)
  setup_s        interpreter start, `import padicops`, config parse and
                 validate (set-up-only probes before each pass, and every
                 pass's own set-up)
  peak_rss_mb    peak resident memory of the workload process
  checks_passed  report rows with `ok: true` in one pass

The host is a few vCPUs of a shared machine whose speed swings by tens of
percent for seconds to minutes at a time, which alone would fill the
wall_s bound.  So every untraced pass times a fixed probe kernel four times
a second (worker.HostProbe); the pass's wall time, less the probe's own
time, is scaled by (REFERENCE_PROBE_S / median probe time of the pass)
** HOST_ELASTICITY.  wall_s is thus in seconds of a host on which the probe
takes REFERENCE_PROBE_S; the unscaled medians are printed beside it.

With `--trace 1` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass (see tracer.py); the spans go to
`.perfbench/trace-<workload>-seed<N>.json`.

Every op (one subcommand invocation) is checked: exit code 0, verdict
`pass`, every row ok with 0 failures, the certified blowup columns equal to
the pinned values, and stdout byte-identical to the first pass's.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, selftest  # noqa: E402

SUBCOMMANDS = ("kummer-table", "sum-estimate", "qexp-check", "zeta-valuations", "ode-check",
               "micro-inverse", "dwork-check", "beta-check", "cocycle-check", "star-props")
# (subcommands, whether the run's --seed is passed on).  substitution keeps
# the seed of default.toml, as `padicops all` does: its cost moved by +-15%
# from seed to seed (random Mobius entries set the size of every rational),
# which alone would fill the wall_s bound.
WORKLOADS = {
    "blowup": (("sum-estimate", "zeta-valuations"), False),
    "substitution": (("beta-check", "cocycle-check"), False),
    "identities": (("kummer-table", "qexp-check", "ode-check", "micro-inverse", "dwork-check",
                    "star-props"), True),
}

# certified columns of the headline family (3, 1, 1, 4), per level N
PINNED = {
    "sum-estimate": {
        6: {"n": 456, "M": 5, "s": 92, "v_sum": "-3", "v_dominant": "-3", "bound": "-3/2"},
        8: {"n": 4101, "M": 7, "s": 821, "v_sum": "-4", "v_dominant": "-4", "bound": "-5/2"},
        10: {"n": 36906, "M": 9, "s": 7382, "v_sum": "-5", "v_dominant": "-5", "bound": "-7/2"},
    },
    "zeta-valuations": {
        6: {"n": 456, "v_sum": "-3", "bound": "-3/2"},
        8: {"n": 4101, "v_sum": "-4", "bound": "-5/2"},
        10: {"n": 36906, "v_sum": "-5", "bound": "-7/2"},
    },
}

SETUP_PROBES = 5  # timed set-up-only processes before each pass, after one warm-up
CHILD_TIMEOUT_S = 170
PASS_BUDGET_S = 150  # no optional pass may start that would end past this
REFERENCE_PROBE_S = 0.004  # probe time wall_s is scaled to: typical on a 2-vCPU Xeon VM
# A pass slows by a fixed power of the probe's slowdown, not in proportion:
# the probe is core-bound, the library partly memory-bound.  On that VM the
# slope of log pass wall on log probe time was 0.68 (identities, 42 passes),
# 0.68 (blowup, 8) and 0.77 (substitution, 8), with correlations 0.8 to 0.9.
HOST_ELASTICITY = 0.7

# per-layer metrics: stat key -> fields reported from the traced pass
TRACED_FIELDS = {
    "padics.add": ("calls", "self_s"),
    "padics.mul": ("calls", "self_s"),
    "padics.mul_rational": ("calls", "self_s"),
    "padics.from_rational": ("calls", "self_s"),
    "carries.sum_estimate": ("calls", "s"),
    "carries.argmin_term_valuation": ("s",),
    "carries.carry_profile": ("calls",),
    "zeta.phi_series_coefficient": ("calls", "s"),
    "zeta.build_cocycle_c": ("calls",),
    "zeta.zeta_series": ("calls",),
    "zeta.ode_residual": ("s",),
    "series.PSeries.mul": ("calls", "self_s"),
    "series.QSeries.mul": ("calls", "self_s"),
    "ratfun.Poly.mul": ("calls", "self_s"),
    "ratfun.Poly.synth_div": ("calls",),
    "ratfun.RF.init": ("calls", "self_s"),
    "ratfun.RF.add": ("calls", "self_s"),
    "ratfun.RF.mul": ("calls", "self_s"),
    "ratfun.RF.derivative": ("calls", "self_s"),
    "skew.star": ("calls", "s", "self_s"),
    "twists.beta_build": ("calls", "s"),
    "twists.cocycle": ("calls", "s"),
    "twists.theta_apply": ("s",),
    "twists.h_sequence": ("s",),
    "cheeses.gauss_valuation": ("calls", "s"),
    "dwork.dwork_identities": ("s",),
    "dwork.frobenius_relation": ("s",),
    **{f"cli.{name}": ("s",) for name in SUBCOMMANDS},
    "cli.emit": ("s",),
}
UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}
EXTRA_LAYER_METRICS = {
    "padics.ops_per_s": ("1/s", "higher"),
    "zeta.cross_checked_rows": ("count", "higher"),
    "zeta.agreement_digits_min": ("digits", "higher"),
    "cli.output_bytes": ("bytes", "lower"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# the namespaces that must each be patched for a wrapped function
REQUIRED_BINDINGS = {
    "carries.sum_estimate": {"carries.sum_estimate", "zeta.sum_estimate"},
    "skew.star": {"skew.star", "twists.star", "dwork.star"},
}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{key}.{field}", *UNITS[field]) for key, fields in TRACED_FIELDS.items() for field in fields]
    return out + [(name, unit, better) for name, (unit, better) in EXTRA_LAYER_METRICS.items()]


# ---------------------------------------------------------------------------
# workload processes
# ---------------------------------------------------------------------------


def spawn(spec: dict) -> tuple[float, dict]:
    """Start a workload process and wait for it; returns (spawn time, its JSON)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return t0, json.loads(proc.stdout.splitlines()[-1])


def setup_seconds() -> float:
    t0, out = spawn({"setup_only": True})
    return out["ready"] - t0


def ops_for(workload: str, seed: int) -> list[list[str]]:
    names, seeded = WORKLOADS[workload]
    config = str(ROOT / "default.toml")
    return [[name, "--config", config, *(["--seed", str(seed)] if seeded else [])] for name in names]


def run_pass(ops: list[list[str]], trace: bool = False) -> dict:
    t0, out = spawn({"ops": ops, "trace": trace})
    out["setup_s"] = out["ready"] - t0
    # the probe runs inside the pass, but its time is not the program's
    out["wall_s"] = out["end"] - out["start"] - sum(out.get("probe_s", ()))
    return out


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def op_problems(op: dict, first_stdout: str | None) -> list[str]:
    """Everything wrong with one op; empty when it passed."""
    name = op["argv"][0]
    if op["error"]:
        return [f"{name} raised:\n{op['error']}"]
    problems = []
    if op["code"] != 0:
        problems.append(f"{name} exited {op['code']}")
    if first_stdout is not None and op["stdout"] != first_stdout:
        problems.append(f"{name} stdout differs from the first pass at the same seed")
    try:
        report = json.loads(op["stdout"])
    except ValueError:
        return problems + [f"{name} printed no JSON report"]
    if report.get("verdict") != "pass":
        problems.append(f"{name} verdict {report.get('verdict')!r}")
    for row in report.get("rows", []):
        if row.get("ok") is False or row.get("failures", 0) != 0:
            problems.append(f"{name} row failed: {row}")
    pinned = PINNED.get(name)
    if pinned:
        got = {row.get("N"): row for row in report.get("rows", [])}
        if sorted(got) != sorted(pinned):
            problems.append(f"{name} levels {sorted(got)} != {sorted(pinned)}")
        for N, want in pinned.items():
            row = got.get(N, {})
            bad = {k: row.get(k) for k, v in want.items() if row.get(k) != v}
            if bad:
                problems.append(f"{name} N={N}: {bad} != pinned {want}")
    return problems


def rows_of(op: dict) -> list[dict]:
    try:
        return json.loads(op["stdout"]).get("rows", [])
    except ValueError:
        return []


def checks_passed(ops: list[dict]) -> int:
    return sum(1 for op in ops for row in rows_of(op) if row.get("ok") is True)


class Gate:
    """Counts ops attempted and failed, keeping the first pass's outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.problems: list[str] = []

    def check(self, ops: list[dict]) -> None:
        for op in ops:
            name = op["argv"][0]
            problems = op_problems(op, self.first.get(name))
            self.first.setdefault(name, op["stdout"])
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def median_line(name: str, unit: str, samples: list[float]) -> str:
    shown = ", ".join(f"{v:.4g}" for v in samples)
    return f"  {name:<14} median {statistics.median(samples):.6g} {unit:<6} n={len(samples)}  [{shown}]"


def run_untraced(ops: list[list[str]], seconds: float, gate: Gate) -> dict:
    walls, raw_walls, probes, setups, rss, checks = [], [], [], [], [], []
    start = time.monotonic()
    while True:
        setups += [setup_seconds() for _ in range(SETUP_PROBES)]
        out = run_pass(ops)
        gate.check(out["ops"])
        setups.append(out["setup_s"])
        probes.append(statistics.median(out["probe_s"]))
        raw_walls.append(out["wall_s"])
        walls.append(out["wall_s"] * (REFERENCE_PROBE_S / probes[-1]) ** HOST_ELASTICITY)
        rss.append(out["peak_rss_mb"])
        checks.append(checks_passed(out["ops"]))
        elapsed = time.monotonic() - start
        if len(walls) >= 2 and (elapsed >= seconds or elapsed + max(walls) > PASS_BUDGET_S):
            break
    samples = {"wall_s": (walls, "s"), "setup_s": (setups, "s"), "peak_rss_mb": (rss, "MB"),
               "checks_passed": (checks, "count")}
    for name, (vals, unit) in samples.items():
        print(median_line(name, unit, vals))
    print(median_line("unscaled wall", "s", raw_walls))
    print(median_line("host probe", "s", probes) + f"  (wall_s is scaled to {REFERENCE_PROBE_S} s)")
    return {name: {"value": statistics.median(vals), "unit": unit} for name, (vals, unit) in samples.items()}


def run_traced(workload: str, seed: int, ops: list[list[str]], gate: Gate, env: dict) -> dict:
    gate.problems += [f"tracer self-test: {p}" for p in selftest()]
    plain = run_pass(ops)
    gate.check(plain["ops"])
    traced = run_pass(ops, trace=True)
    gate.check(traced["ops"])  # compared byte for byte with the untraced pass
    for key, need in REQUIRED_BINDINGS.items():
        missing = need - set(traced["bindings"].get(key, []))
        if missing:
            gate.problems.append(f"{key} not patched in {sorted(missing)}")

    stats = traced["stats"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    values = {f"{key}.{field}": stats.get(key, zero)[field]
              for key, fields in TRACED_FIELDS.items() for field in fields}
    padic = [stats.get(k, zero) for k in TRACED_FIELDS if k.startswith("padics.")]
    # calls per traced second: the self times include the wrappers' own cost,
    # so this compares traced runs with each other, not with untraced speed
    padic_self = sum(s["self_s"] for s in padic)
    values["padics.ops_per_s"] = sum(s["calls"] for s in padic) / padic_self if padic_self else 0.0
    digits = [row["agreement_digits"] for op in traced["ops"] if op["argv"][0] == "zeta-valuations"
              for row in rows_of(op) if row.get("agreement_digits") != ""]
    values["zeta.cross_checked_rows"] = len(digits)
    values["zeta.agreement_digits_min"] = min(digits, default=0)
    values["cli.output_bytes"] = sum(len(op["stdout"].encode()) for op in traced["ops"])
    layer_self = traced["layer_self_s"]
    for layer, value in layer_self.items():
        values[f"layer.{layer}.self_s"] = value
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.unattributed_s"] = traced["wall_s"] - sum(layer_self.values())
    # one untraced/traced pair: on a host whose speed drifts this reads only
    # the order of the tracing cost, and may even come out negative
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, **env, "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"], "covered_s": traced["covered_s"],
        "bindings": traced["bindings"], "stats": stats, "spans": traced["spans"],
        "metrics": metrics,
    }, indent=1) + "\n")
    print(f"  untraced wall {plain['wall_s']:.4f} s, traced wall {traced['wall_s']:.4f} s; "
          f"trace written to {path.relative_to(ROOT)}")
    for layer, value in layer_self.items():
        print(f"  layer {layer:<8} self {value:10.4f} s")
    print(f"  unattributed   {values['trace.unattributed_s']:10.4f} s")
    return metrics


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "padicops").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(), "commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in (ROOT / "src" / "padicops" / "cli.py", ROOT / "default.toml"):
        if not need.is_file():
            print(f"error: {need} is missing; run from a checkout of the repository", file=sys.stderr)
            return 2
    env = environment()
    seeded = WORKLOADS[args.workload][1]
    print(f"padicops benchmark: workload {args.workload}, seed {args.seed}"
          f"{'' if seeded else ' (not passed on: fixed inputs)'}, trace {args.trace}")
    print(f"  python {env['python']}, commit {env['commit']}, src sha256 {env['src_sha256'][:16]}")

    ops = ops_for(args.workload, args.seed)
    gate = Gate()
    try:
        setup_seconds()  # warm-up: byte-compiles the sources once, untimed
        if args.trace:
            metrics = run_traced(args.workload, args.seed, ops, gate, env)
        else:
            metrics = run_untraced(ops, args.seconds, gate)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for problem in gate.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": gate.failed == 0 and not gate.problems, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
