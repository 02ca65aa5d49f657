#!/usr/bin/env python3
"""Produce the dominant-term blow-up tables for the three parameter families.

Writes one CSV per family (or prints to stdout) with columns
N, n, M, s, v_sum, v_dominant, bound, agreement_digits.  Every valuation is
an exact rational; every row is confirmed twice, by the carry route and the
independent series route, and agreement_digits counts the digits on which
the two agree.  Exits 1 if any row fails its check.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padicops import zeta  # noqa: E402
from padicops.carries import Family  # noqa: E402
from padicops.cli import fmt_val  # noqa: E402

FAMILIES = [
    (3, 1, 1, 4, (6, 8, 10)),
    (2, 1, 1, 3, (6, 8, 10)),
    (3, 1, 3, 4, (7, 9)),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=60)
    ap.add_argument("--out-prefix", help="write blowup_<p>_<k>_<d>.csv files here")
    args = ap.parse_args()

    for p, f, k, d, levels in FAMILIES:
        fam = Family(p, p**f, k, d)
        lines = ["N,n,M,s,v_sum,v_dominant,bound,agreement_digits,seconds"]
        for N in levels:
            t0 = time.monotonic()
            (row,) = zeta.phi_valuation_profile(fam, [N], args.prec)
            dt = time.monotonic() - t0
            idx, rep = row.idx, row.report
            lines.append(
                f"{N},{idx.n},{idx.M},{idx.s},{fmt_val(rep.v_sum)},"
                f"{fmt_val(rep.v_dominant)},{fmt_val(rep.bound)},{row.agreement_digits},{dt:.2f}"
            )
            if not rep.ok:
                print(f"blow-up check failed at {(p, f, k, d, N)}", file=sys.stderr)
                return 1
            if not row.cross_checked:
                print(
                    f"series and carry routes agree on only {row.agreement_digits} digits "
                    f"at {(p, f, k, d, N)}",
                    file=sys.stderr,
                )
                return 1
        text = "\n".join(lines) + "\n"
        header = f"# family p={p} f={f} k={k} d={d}\n"
        if args.out_prefix:
            path = f"{args.out_prefix}/blowup_p{p}_k{k}_d{d}.csv"
            with open(path, "w") as fh:
                fh.write(header + text)
            print(f"wrote {path}")
        else:
            sys.stdout.write(header + text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
