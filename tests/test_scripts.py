"""scripts/blowup_table.py: every headline row is confirmed by both routes;
scripts/reachability.py: lists what a CLI run never calls."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from padicops import zeta
from padicops.padics import PadicNumber

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SCRIPT = SCRIPTS / "blowup_table.py"


@pytest.fixture
def blowup_table(monkeypatch):
    spec = importlib.util.spec_from_file_location("blowup_table", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "FAMILIES", [(2, 1, 1, 3, (6, 8))])
    monkeypatch.setattr(sys, "argv", ["blowup_table.py"])
    return mod


def test_table_has_agreement_digits(blowup_table, capsys):
    assert blowup_table.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "N,n,M,s,v_sum,v_dominant,bound,agreement_digits,seconds"
    assert [line.split(",")[:8] for line in lines[2:]] == [
        ["6", "22", "3", "7", "-3", "-3", "-3/2", "60"],
        ["8", "86", "5", "23", "-4", "-4", "-5/2", "60"],
    ]


def test_row_not_cross_checked_exits_1(blowup_table, monkeypatch, capsys):
    real = zeta.phi_series_coefficient

    def off_by_one(p, q, k, d, n_target, prec):
        return real(p, q, k, d, n_target, prec) + PadicNumber.from_rational(1, p, prec)

    monkeypatch.setattr(zeta, "phi_series_coefficient", off_by_one)
    assert blowup_table.main() == 1
    assert "agree on only" in capsys.readouterr().err


def test_reachability_lists_what_kummer_table_never_calls():
    # a fresh process, so no cache warmed by other tests hides a call
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reachability.py"), "kummer-table", "--cases", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    unrun = proc.stdout.split()
    assert "series.PSeries.mul" in unrun
    assert "carries.vp_binom_kummer" not in unrun
    assert not any(name.split(".")[-1].startswith("__") for name in unrun)
