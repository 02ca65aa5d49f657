import dataclasses
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from padicops import carries, twists
from padicops.cli import (
    COMMANDS,
    EXIT_MATH,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_USAGE,
    PRIME_BASES,
    PRIME_BOUND,
    ConfigError,
    Report,
    RunConfig,
    emit,
    fmt_val,
    is_prime,
    main,
    parse_config_file,
    strong_probable_prime,
)
from padicops.padics import PrecisionExhausted
from padicops.series import QSeries
from fractions import Fraction as F


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "padicops.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestFormatting:
    def test_rational_valuations_never_floats(self):
        assert fmt_val(F(-3, 2)) == "-3/2"
        assert fmt_val(F(4)) == "4"
        assert fmt_val(float("inf")) == "inf"

    def test_emit_json_empty_rows(self):
        # the verdict is derived from the rows, and no rows is no evidence
        rep = Report("x", "c", {"p": 3}, [])
        obj = json.loads(emit(rep, "json"))
        assert obj["rows"] == [] and obj["verdict"] == "fail"

    def test_runtime_excluded_by_default(self):
        rep = Report("x", "c", {}, [{"ok": True}])
        assert "runtime_ms" not in json.loads(emit(rep, "json"))
        rep2 = Report("x", "c", {}, [{"ok": True}], runtime_ms=12)
        assert json.loads(emit(rep2, "json"))["runtime_ms"] == 12
        assert "runtime_ms" not in emit(rep, "csv")
        assert emit(rep2, "csv").endswith("# verdict: pass\n# runtime_ms: 12\n")

    def test_csv_timing_from_cli(self):
        args = ["qexp-check", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6",
                "--format", "csv"]
        code, out, _ = run_cli(args)
        assert code == EXIT_OK and "runtime_ms" not in out
        code, out, _ = run_cli([*args, "--timing"])
        last = out.splitlines()[-1]
        assert code == EXIT_OK and last.startswith("# runtime_ms: ")
        assert int(last.removeprefix("# runtime_ms: ")) >= 0

    def test_csv_json_round_trip(self):
        rows = [{"a": 1, "b": "-3/2"}, {"a": 2, "b": "inf"}]
        rep = Report("demo", "claim", {"p": 3}, rows)
        csv_text = emit(rep, "csv")
        lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        parsed = [dict(zip(header, l.split(","))) for l in lines[1:]]
        jo = json.loads(emit(rep, "json"))
        for row_csv, row_json in zip(parsed, jo["rows"]):
            for key in header:
                assert row_csv[key] == str(row_json[key])


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text(
            """
            # sample configuration
            p = 3
            f = 1
            k = 1
            d = 4
            n_list = [6, 8]
            prec = 50
            fmt = "csv"
            """
        )
        data = parse_config_file(str(cfg))
        assert data == {"p": 3, "f": 1, "k": 1, "d": 4, "n_list": [6, 8], "prec": 50, "fmt": "csv"}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config_file("/nonexistent/nope.toml")

    def test_parity_rule_enforced(self):
        cfg = RunConfig(p=3, f=1, k=1, d=4, n_list=[7])
        with pytest.raises(ConfigError, match="parity"):
            cfg.validate()

    def test_d_must_divide(self):
        with pytest.raises(ConfigError, match="divide"):
            RunConfig(p=3, f=1, d=5).validate()

    def test_p_coprime_d(self):
        with pytest.raises(ConfigError, match="coprime"):
            RunConfig(p=2, d=2, k=1).validate(level_data=False)

    @pytest.mark.parametrize("p", [1, 4, 10403, 101 * 101, 9973 * 9967])
    def test_composite_p_rejected(self, p):
        # 10403 = 101 * 103 has no factor below 100
        with pytest.raises(ConfigError, match="not prime"):
            RunConfig(p=p, d=2).validate(level_data=False)

    @pytest.mark.parametrize("p", [2, 3, 97, 101, 10007])
    def test_primes_accepted(self, p):
        RunConfig(p=p, d=p + 1 if p == 2 else 2).validate(level_data=False)


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for n in range(-2, 20000):
            want = n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))
            assert is_prime(n) == want, n

    @pytest.mark.parametrize("n", [561, 1105, 2047, 1373653, 25326001, 3215031751, 341550071728321,
                                   3825123056546413051, 318665857834031151167461])
    def test_carmichael_numbers_and_strong_pseudoprimes_rejected(self, n):
        # each is composite; from 2047 on each is a strong pseudoprime to 2
        assert not is_prime(n)

    def test_bound_is_the_first_pseudoprime_to_all_bases(self):
        assert PRIME_BOUND == 1287836182261 * 2575672364521
        assert all(strong_probable_prime(PRIME_BOUND, a) for a in PRIME_BASES)
        with pytest.raises(ValueError):
            is_prime(PRIME_BOUND)

    def test_mersenne_61_validates_fast(self):
        t0 = time.perf_counter()
        RunConfig(p=2**61 - 1, d=2).validate(level_data=False)
        assert time.perf_counter() - t0 < 0.1
        assert is_prime(2**31 - 1) and not is_prime(2**67 - 1)  # 2^67 - 1 = 193707721 * 761838257287

    def test_past_the_bound_rejected(self):
        with pytest.raises(ConfigError, match="too large"):
            RunConfig(p=2**107 - 1, d=2).validate(level_data=False)

    def test_strong_pseudoprime_exit_2(self):
        # 3215031751 passes Miller-Rabin to the bases 2, 3, 5 and 7
        code, _, err = run_cli(["kummer-table", "--p", "3215031751", "--d", "2"])
        assert code == EXIT_USAGE and "not prime" in err

    def test_past_the_bound_exit_2(self):
        code, _, err = run_cli(["kummer-table", "--p", str(PRIME_BOUND + 2), "--d", "2"])
        assert code == EXIT_USAGE and "too large" in err


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("command", list(COMMANDS))
def test_default_output_matches_golden_bytes(command):
    proc = subprocess.run(
        [sys.executable, "-m", "padicops", command, "--config", str(REPO / "default.toml")],
        capture_output=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stdout == (REPO / "tests" / "golden" / f"{command}.json").read_bytes()


# the seeded operator checks at three more seeds, pinned in
# tests/golden/<command>-seed<n>.json
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("command", ["beta-check", "cocycle-check", "star-props"])
def test_seeded_output_matches_golden_bytes(command, seed, capsys):
    assert main([command, "--config", str(REPO / "default.toml"), "--seed", str(seed)]) == EXIT_OK
    golden = REPO / "tests" / "golden" / f"{command}-seed{seed}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


# (p, f, k, d) and levels of the other two release families, pinned in
# tests/golden/<command>-<p>-<f>-<k>-<d>.json
GOLDEN_FAMILIES = {(2, 1, 1, 3): "6,8,10", (3, 1, 3, 4): "7,9"}


@pytest.mark.parametrize("command", ["sum-estimate", "zeta-valuations"])
@pytest.mark.parametrize("family", list(GOLDEN_FAMILIES), ids=str)
def test_release_family_output_matches_golden_bytes(command, family, capsys):
    p, f, k, d = family
    argv = [command, "--p", str(p), "--f", str(f), "--k", str(k), "--d", str(d),
            "--N", GOLDEN_FAMILIES[family]]
    assert main(argv) == EXIT_OK
    golden = REPO / "tests" / "golden" / f"{command}-{p}-{f}-{k}-{d}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


# ode-check beyond the default family: both release families, a larger p
# and an f = 2 family, pinned in tests/golden/ode-check-<p>-<f>-<k>-<d>.json
@pytest.mark.parametrize("family", [(2, 1, 1, 3), (3, 1, 3, 4), (5, 1, 1, 6), (2, 2, 1, 5)], ids=str)
def test_ode_check_family_output_matches_golden_bytes(family, capsys):
    p, f, k, d = family
    assert main(["ode-check", "--p", str(p), "--f", str(f), "--k", str(k), "--d", str(d)]) == EXIT_OK
    golden = REPO / "tests" / "golden" / f"ode-check-{p}-{f}-{k}-{d}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_failed_uniqueness_proof_is_a_fail_row(monkeypatch, capsys):
    # a carry count off by one disagrees with the Legendre scan at r = s
    real = carries.dominant_term_valuation
    monkeypatch.setattr(carries, "dominant_term_valuation", lambda idx: real(idx) - 1)
    monkeypatch.setattr(carries, "_SUM_MEMO", {})
    code = main(["sum-estimate", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6,8"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == EXIT_MATH
    assert report["verdict"] == "fail"
    assert [row["argmin_unique"] for row in report["rows"]] == [False, False]
    assert not any(row["ok"] for row in report["rows"])
    assert "carry count" in err and "Traceback" not in err


def test_a_carry_profile_with_a_wrong_L_is_a_fail_row(monkeypatch, capsys):
    # the profile that `L = j - 1` in place of `L = j + 1` builds
    real = carries.carry_profile

    def shifted(*args):
        prof = real(*args)
        return dataclasses.replace(prof, L=prof.L - 2) if prof.L != math.inf else prof

    monkeypatch.setattr(carries, "carry_profile", shifted)
    code = main(["qexp-check", "--p", "3", "--f", "1", "--k", "1", "--d", "4", "--N", "6"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == EXIT_MATH and report["verdict"] == "fail"
    assert [row["ok"] for row in report["rows"]] == [False]
    assert "is not where the carrying" in err and "Traceback" not in err


def test_valuation_tie_is_a_fail_row(monkeypatch, capsys):
    real = carries.term_valuations

    def tied(idx):
        vals = list(real(idx))
        vals[idx.s + 1] = vals[idx.s]
        return iter(vals)

    monkeypatch.setattr(carries, "term_valuations", tied)
    code = main(["sum-estimate", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == EXIT_MATH and report["verdict"] == "fail"
    assert report["rows"][0]["argmin_unique"] is False and "tie" in err


def test_failed_power_check_is_a_fail_row(monkeypatch, capsys):
    # a perturbed fractional power breaks c^d = ratio^k: the rows built on c
    # fail, the rows that do not read c still pass, and nothing is raised
    real = QSeries.pow_fractional
    monkeypatch.setattr(QSeries, "pow_fractional",
                        lambda u, a: real(u, a) + QSeries.of([0, 0, 1], u.order))
    code = main(["ode-check", "--order", "20"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == EXIT_MATH and report["verdict"] == "fail"
    assert [row["ok"] for row in report["rows"]] == [False, False, True, False, False, True]
    assert "does not recover the unit ratio" in err and "Traceback" not in err


# inputs outside the family (p, f, k, d) = (3, 1, k, d) at level N = 6
REJECTED_FAMILIES = {
    "d_not_dividing_q_plus_1": ["--d", "5"],
    "p_dividing_d": ["--d", "3"],
    "k_zero": ["--k", "0"],
    "k_above_d": ["--k", "5"],
    "k_equal_to_d": ["--k", "4"],
    "wrong_parity": ["--N", "7"],
}


@pytest.mark.parametrize("command", ["sum-estimate", "qexp-check", "zeta-valuations", "ode-check"])
@pytest.mark.parametrize("extra", REJECTED_FAMILIES.values(), ids=REJECTED_FAMILIES)
def test_rejected_family_exits_2(command, extra, capsys):
    argv = [command, "--p", "3", "--f", "1", "--k", "1", "--d", "4", "--N", "6", *extra]
    code = main(argv)
    out, err = capsys.readouterr()
    if command == "ode-check" and extra == REJECTED_FAMILIES["wrong_parity"]:
        # ode-check reads no level data, so a level off the parity rule is no error
        assert code == EXIT_OK, err
        assert out.encode() == (REPO / "tests" / "golden" / "ode-check.json").read_bytes()
        return
    assert code == EXIT_USAGE
    assert out == "" and "error" in err


# config files for BAD_FLAGS, named by their {placeholder}
BAD_CONFIGS = {
    "empty": "n_list = []\n",
    "prec_string": 'prec = "60"\n',
    "n_list_int": "n_list = 6\n",
    "n_list_words": "n_list = [six]\n",
    "seed_bool": "seed = true\n",
}

# one entry per usage rule of build_config and RunConfig.validate, at the
# default family (p, f, k, d) = (3, 1, 1, 4)
BAD_FLAGS = {
    "N_above_the_cap": ["sum-estimate", "--N", "12"],
    "N_below_6": ["qexp-check", "--N", "4"],
    "N_wrong_parity": ["zeta-valuations", "--N", "7"],
    "N_not_integers": ["sum-estimate", "--N", "x"],
    "n_list_empty": ["sum-estimate", "--config", "{empty}"],
    "family_in_ode_check": ["ode-check", "--d", "5"],
    "f_0": ["kummer-table", "--f", "0"],
    "prec_0": ["sum-estimate", "--prec", "0"],
    "prec_negative": ["zeta-valuations", "--prec", "-5"],
    "order_0": ["ode-check", "--order", "0"],
    "order_1": ["ode-check", "--order", "1"],
    "cases_0": ["star-props", "--cases", "0"],
    "k_neg_0": ["micro-inverse", "--k-neg", "0"],
    "q_0": ["dwork-check", "--q", "0"],
    "K_below_3q": ["dwork-check", "--K", "2"],
    "K_below_3q_for_the_q_set": ["dwork-check", "--q", "5"],
    "prec_a_string": ["sum-estimate", "--config", "{prec_string}"],
    "n_list_an_int": ["zeta-valuations", "--config", "{n_list_int}"],
    "n_list_not_integers": ["sum-estimate", "--config", "{n_list_words}"],
    "seed_a_bool": ["beta-check", "--config", "{seed_bool}"],
    "d_not_coprime_in_cocycle_check": ["cocycle-check", "--p", "2"],
    "d_0_in_cocycle_check": ["cocycle-check", "--d", "0"],
    "d_negative_in_cocycle_check": ["cocycle-check", "--d", "-1"],
}


@pytest.mark.parametrize("argv", BAD_FLAGS.values(), ids=BAD_FLAGS)
def test_bad_flag_exits_2_before_any_math(argv, tmp_path, capsys):
    paths = {}
    for name, text in BAD_CONFIGS.items():
        paths[name] = tmp_path / f"{name}.toml"
        paths[name].write_text(text)
    code = main([a.format(**paths) for a in argv])
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert "config error" in err and "Traceback" not in err


def test_d_rule_holds_only_where_d_is_read(capsys):
    # kummer-table never reads d, so the default d = 4 is no error at p = 2
    assert main(["kummer-table", "--p", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert main(["cocycle-check", "--p", "2"]) == EXIT_USAGE
    assert "d = 4 must be coprime to p = 2" in capsys.readouterr().err


FAST = ["--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6",
        "--order", "60", "--cases", "25", "--k-neg", "8", "--prec", "40"]


def test_library_error_mid_command_is_a_fail_report(monkeypatch, capsys):
    def broken(*args):
        raise ValueError("injected")

    monkeypatch.setattr(twists, "beta_homomorphism_ok", broken)
    code = main(["all", *FAST])
    out, err = capsys.readouterr()
    verdicts = re.findall(r'"verdict": "(\w+)"', out)
    assert code == EXIT_MATH and "Traceback" not in err
    assert verdicts == ["fail" if name == "beta-check" else "pass" for name in COMMANDS]
    assert '"error": "ValueError: injected"' in out and "beta-check: ValueError: injected" in err


def test_kummer_summary_row_carries_the_verdict(monkeypatch, capsys):
    real, calls = carries.vp_binom_kummer, []

    def wrong_on_call_60(lam, n, p):
        calls.append(1)
        return real(lam, n, p) + (len(calls) == 60)

    monkeypatch.setattr(carries, "vp_binom_kummer", wrong_on_call_60)
    code = main(["kummer-table", "--cases", "60"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_MATH and report["verdict"] == "fail"
    assert len(report["rows"]) == 51 and all(row["ok"] is True for row in report["rows"][:50])
    assert report["rows"][50]["ok"] is False and report["rows"][50]["failures"] == 1


def test_failed_case_table_check_is_not_a_usage_error(monkeypatch, capsys):
    # Family.index runs in validate; its CheckFailed is the command's to report
    real = carries.expected_M
    monkeypatch.setattr(carries, "expected_M", lambda k, q, N: real(k, q, N) + 1)
    code = main(["sum-estimate", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6"])
    out, err = capsys.readouterr()
    assert code == EXIT_MATH and "Traceback" not in err
    assert out == "" or json.loads(out)["verdict"] == "fail"


def test_precision_exhausted_keeps_finished_reports(monkeypatch, tmp_path, capsys):
    def exhausted(*args, **kwargs):
        raise PrecisionExhausted("injected")

    monkeypatch.setattr(carries, "sum_estimate", exhausted)  # the second command of all
    target = tmp_path / "report.json"
    code = main(["all", *FAST, "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == EXIT_PRECISION and out == "" and "precision exhausted: injected" in err
    report = json.loads(target.read_text())
    assert report["command"] == "kummer-table" and report["verdict"] == "pass"


class TestEndToEnd:
    def test_missing_config_file_exit_2(self):
        code, _, err = run_cli(["sum-estimate", "--config", "/no/such/file.toml"])
        assert code == EXIT_USAGE and "config error" in err

    def test_composite_p_exit_2(self):
        code, _, err = run_cli(["kummer-table", "--p", "10403", "--d", "2"])
        assert code == EXIT_USAGE and "not prime" in err

    def test_parity_violation_exit_2(self):
        code, _, err = run_cli(["sum-estimate", "--p", "3", "--k", "1", "--d", "4", "--N", "7"])
        assert code == EXIT_USAGE and "parity" in err

    def test_sum_estimate_small(self):
        code, out, _ = run_cli(
            ["sum-estimate", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6,8"]
        )
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["verdict"] == "pass"
        assert obj["rows"][0]["v_sum"] == "-3"
        assert obj["rows"][0]["bound"] == "-3/2"

    def test_determinism(self):
        args = ["star-props", "--cases", "20", "--seed", "5"]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert out1 == out2

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text('p = 2\nf = 1\nk = 1\nd = 3\nn_list = [6]\nprec = 40\n')
        code, out, _ = run_cli(["sum-estimate", "--config", str(cfg), "--prec", "44"])
        assert code == EXIT_OK
        assert json.loads(out)["params"]["prec"] == 44

    def test_csv_output(self):
        code, out, _ = run_cli(
            ["qexp-check", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6", "--format", "csv"]
        )
        assert code == EXIT_OK
        assert out.startswith("# command: qexp-check")
        assert "# verdict: pass" in out

    def test_in_process_main(self, capsys):
        assert main(["dwork-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"] == "pass"

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["qexp-check", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6",
             "--out", str(target)]
        )
        assert code == EXIT_OK and out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_all_aggregate_fast_parameters(self):
        # a small-parameter sweep of every subcommand; exit 0 means every
        # verdict line is `pass`
        code, out, err = run_cli(
            ["all", "--p", "2", "--f", "1", "--k", "1", "--d", "3", "--N", "6",
             "--order", "60", "--cases", "25", "--k-neg", "8", "--prec", "40"]
        )
        assert code == EXIT_OK, err
        assert out.count('"verdict": "pass"') == 10
