"""One workload process: set up padicops from the checkout and run one pass.

    python3 perfbench/worker.py '<json spec>'

The spec holds `ops` (a list of `padicops` argument lists), `trace` (bool)
and `setup_only` (bool).  The process imports padicops from the checkout's
own `src/`, parses and validates `default.toml`, and then runs every op
through `padicops.cli.main` in turn, capturing each op's stdout.  It prints
one JSON object: CLOCK_MONOTONIC timestamps (comparable with the parent's),
the per-op exit codes and outputs, its own peak RSS and, when traced, the
per-function stats and spans; when not traced, the host-speed probe times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE_EVERY_S = 0.25
PROBE_STEPS = 10_000  # about 4 ms on a 2-vCPU Xeon VM


class HostProbe:
    """Times a fixed kernel every PROBE_EVERY_S seconds of a pass, from SIGALRM.

    The speed of a shared host swings by tens of percent for seconds to
    minutes at a time; the probe samples that speed while the pass runs, so
    the parent can scale the pass's wall time to a fixed host speed.  The
    kernel is plain int arithmetic over a small table built once: it
    allocates no object the garbage collector tracks and its data stays in
    the core's own caches, so neither the library's heap, its GC settings
    nor its memory traffic change the kernel's time.  Its own time is returned so the parent
    can take it out of the pass's wall time.
    """

    def __init__(self) -> None:
        self.table = [(i * 2654435761) % (1 << 61) for i in range(256)]
        self.samples: list[float] = []

    def _kernel(self, *_) -> None:
        t0 = time.perf_counter()
        table, x = self.table, 1
        for i in range(PROBE_STEPS):
            x = (x * 6364136223846793005 + table[(x ^ i) & 0xFF]) % 18446744073709551557
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._kernel)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def setup():
    sys.path.insert(0, str(ROOT / "src"))
    from padicops import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"padicops imported from {cli.__file__}, not from the checkout")
    cfg = cli.RunConfig(**cli.parse_config_file(str(ROOT / "default.toml")))
    cfg.validate()
    return cli


def run_ops(cli, ops: list[list[str]]) -> list[dict]:
    results = []
    for argv in ops:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            error = None
        except Exception:  # an op that raises is a failed op, not a crash
            code, error = None, traceback.format_exc(limit=5)
        results.append({"argv": argv, "code": code, "stdout": buf.getvalue(), "error": error})
    return results


def main() -> int:
    spec = json.loads(sys.argv[1])
    cli = setup()
    out = {"ready": time.monotonic()}
    if not spec.get("setup_only"):
        tracer = probe = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            probe = HostProbe()
        with probe or contextlib.nullcontext():
            out["start"] = time.monotonic()
            out["ops"] = run_ops(cli, spec["ops"])
            out["end"] = time.monotonic()
        if probe is not None:
            out["probe_s"] = probe.samples
        if tracer is not None:
            tracer.uninstall()
            out["stats"] = {k: {"layer": tracer.layer_of[k], "calls": s.calls, "s": s.total,
                                "self_s": s.self_time} for k, s in tracer.stats.items()}
            out["covered_s"] = tracer.covered
            out["layer_self_s"] = tracer.layer_self()
            out["spans"] = tracer.spans
            out["bindings"] = tracer.bindings
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
