import io
import json
import math
import subprocess
import sys

import pytest

from smoothcircle.cli import main


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    """Baselines here assume the default config, whatever the caller's env."""
    monkeypatch.delenv("SMOOTHCIRCLE_CONFIG", raising=False)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def test_exact_subcommand():
    code, out, err = run_cli("exact", "--x", "10", "--y", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["value"] == "16"
    assert row["terms"] == "4"
    assert row["nodes"] == "1"


def test_exact_rejects_y1():
    code, out, err = run_cli("exact", "--x", "10", "--y", "1")
    assert code == 1
    assert "y >= 2" in err


def test_unknown_flag_usage_exit1():
    code, out, err = run_cli("exact", "--x", "10", "--y", "2", "--frobnicate")
    assert code == 1
    assert "usage:" in err


def test_unknown_command_exit1():
    code, out, err = run_cli("frobnicate")
    assert code == 1


def test_alpha_subcommand():
    code, out, _ = run_cli("alpha", "--x", "4", "--y", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["alpha"]) == pytest.approx(0.5849625007211562, abs=1e-12)
    assert float(row["bracket_lo"]) < float(row["alpha"]) < float(row["bracket_hi"])


def test_alpha_bracket_hi_reads_inf_while_no_iterate_passed_alpha():
    # every Newton iterate at (1e30, 1e6) lies below alpha, so the known
    # upper end, inf, is still the bracket's
    code, out, _ = run_cli("alpha", "--x", "1e30", "--y", "1000000")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["bracket_hi"] == "inf"
    assert float(row["bracket_lo"]) < float(row["alpha"]) < float(row["bracket_hi"])
    code, out, _ = run_cli("alpha", "--x", "1e30", "--y", "1000000", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["bracket_hi"] == "inf"
    assert row["bracket_lo"] < row["alpha"] < float(row["bracket_hi"])


def test_alpha_via_u():
    code, out, _ = run_cli("alpha", "--u", "2", "--y", "2")
    assert code == 0
    assert float(parse_csv(out)[0]["alpha"]) == pytest.approx(math.log2(1.5), abs=1e-12)


def test_hval_subcommand():
    code, out, _ = run_cli("hval", "--sigma", "1", "--y", "3")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["re"]) == pytest.approx(2.25, rel=1e-14)
    assert float(row["im"]) == 0.0
    assert float(row["phi1"]) < 0 and float(row["phi2"]) > 0


def test_hval_complex_leaves_phi_empty():
    code, out, _ = run_cli("hval", "--sigma", "1", "--t", "2.5", "--y", "100")
    row = parse_csv(out)[0]
    assert row["phi"] == "" and row["phi4"] == ""
    assert math.hypot(float(row["re"]), float(row["im"])) <= 2.25 * 100  # finite


def test_estimate_and_compare():
    code, out, _ = run_cli("estimate", "--x", "100", "--y", "100", "--with-exact")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["exact"] == "316"
    assert float(row["rankin"]) >= 316.0

    code, out, _ = run_cli("compare", "--grid-x", "100,1000", "--grid-y", "10,30")
    rows = parse_csv(out)
    assert [(r["x"], r["y"]) for r in rows] == [
        ("100", "10"), ("100", "30"), ("1000", "10"), ("1000", "30")
    ]
    assert all(r["exact"] == "" for r in rows)


def test_xi_rho_subcommands():
    code, out, _ = run_cli("xi", "--u", "1,10")
    rows = parse_csv(out)
    assert float(rows[0]["value"]) == 0.0
    assert float(rows[1]["value"]) == pytest.approx(3.6149504270875306, rel=1e-12)

    code, out, _ = run_cli("xi", "--u", f"1e200,{sys.float_info.max!r}")
    assert code == 0
    assert [round(float(r["value"]), 6) for r in parse_csv(out)] == [466.662625, 716.356891]

    code, out, _ = run_cli("rho", "--u", "0.5,2")
    rows = parse_csv(out)
    assert float(rows[0]["value"]) == 1.0
    assert float(rows[1]["value"]) == pytest.approx(1 - math.log(2), rel=1e-12)


def test_primesums_subcommand():
    code, out, _ = run_cli("primesums", "--x", "10", "--sigma", "1")
    row = parse_csv(out)[0]
    want = math.log(2) / 2 + math.log(3) / 3 + math.log(5) / 5 + math.log(7) / 7
    assert float(row["value"]) == pytest.approx(want, rel=1e-13)
    assert row["twist"] == "false"

    code, out, _ = run_cli("primesums", "--x", "10,100", "--sigma", "1", "--twist")
    rows = parse_csv(out)
    assert len(rows) == 2
    assert all(r["main_term"] == "0" for r in rows)

    assert run_cli("primesums", "--sigma", "1")[0] == 1  # --x is required

def test_perron_subcommand():
    code, out, _ = run_cli("perron", "--x", "20.5", "--y", "10", "--T", "25")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["exact"] != ""
    assert abs(float(row["error"])) < 0.3 * float(row["exact"])


def test_diffcheck_subcommand():
    code, out, _ = run_cli("diffcheck", "--x", "1000", "--y", "50", "--z", "5")
    assert code == 0
    row = parse_csv(out)[0]
    assert int(row["lhs"]) >= 0
    assert float(row["ratio"]) > 0


def test_json_format():
    code, out, _ = run_cli("xi", "--u", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["tool"] == "smoothcircle"
    assert doc["rows"][0]["u"] == 2.0


def test_header_and_determinism():
    runs = [run_cli("compare", "--grid-x", "50,500", "--grid-y", "5,7", "--with-exact")
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][1].startswith("# smoothcircle ")


def test_config_file_and_env(tmp_path, monkeypatch):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text("node_budget=10\n# comment line\noutput_format=csv\n")
    code, out, err = run_cli("--config", str(cfgfile), "exact", "--x", "100000", "--y", "30")
    assert code == 2  # budget exhausted -> resource error
    assert "budget" in err

    monkeypatch.setenv("SMOOTHCIRCLE_CONFIG", str(cfgfile))
    code, out, err = run_cli("exact", "--x", "100000", "--y", "30")
    assert code == 2
    monkeypatch.delenv("SMOOTHCIRCLE_CONFIG")
    code, out, err = run_cli("exact", "--x", "100000", "--y", "30")
    assert code == 0


def test_config_hash_in_header(tmp_path):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text("epsilon0=0.2\n")
    _, out1, _ = run_cli("xi", "--u", "2")
    _, out2, _ = run_cli("--config", str(cfgfile), "xi", "--u", "2")
    h1 = out1.split("\n")[0].split("config=")[1]
    h2 = out2.split("\n")[0].split("config=")[1]
    assert h1 != h2  # different config, different hash
    assert out1.split("\n")[1:] == out2.split("\n")[1:]  # same numbers


def test_bad_config_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("frobnicate=1\n")
    code, _, err = run_cli("--config", str(cfgfile), "xi", "--u", "2")
    assert code == 1
    assert "unknown config key" in err


@pytest.mark.parametrize("line", ["residual_tol=1e-10", "sieve_segment_size=4096"])
def test_removed_config_keys_exit1(tmp_path, line):
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text(line + "\n")
    code, out, err = run_cli("--config", str(cfgfile), "exact", "--x", "10", "--y", "2")
    assert code == 1 and out == ""
    assert "unknown config key" in err


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "smoothcircle", "exact", "--x", "10", "--y", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[-1] == "10,2,16,4,recursive,1"


def test_format_before_subcommand():
    before = run_cli("--format", "json", "xi", "--u", "2")
    after = run_cli("xi", "--u", "2", "--format", "json")
    assert before == after
    assert before[0] == 0
    assert json.loads(before[1])["rows"][0]["u"] == 2.0


def test_config_after_subcommand(tmp_path):
    budget = tmp_path / "budget.cfg"
    budget.write_text("node_budget=10\n")
    before = run_cli("--config", str(budget), "exact", "--x", "100000", "--y", "30")
    after = run_cli("exact", "--x", "100000", "--y", "30", "--config", str(budget))
    assert before == after
    assert after[0] == 2 and "budget" in after[2]

    bad = tmp_path / "bad.cfg"
    bad.write_text("frobnicate=1\n")
    before = run_cli("--config", str(bad), "xi", "--u", "2")
    after = run_cli("xi", "--u", "2", "--config", str(bad))
    assert before == after
    assert after[0] == 1 and "unknown config key" in after[2]


def test_global_flag_later_occurrence_wins(tmp_path):
    code, out, _ = run_cli("--format", "json", "xi", "--u", "2", "--format", "csv")
    assert code == 0 and out == run_cli("xi", "--u", "2")[1]
    code, out, _ = run_cli("--format", "csv", "xi", "--u", "2", "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["u"] == 2.0

    a = tmp_path / "a.cfg"
    a.write_text("epsilon0=0.2\n")
    b = tmp_path / "b.cfg"
    b.write_text("epsilon0=0.3\n")
    both = run_cli("--config", str(a), "xi", "--u", "2", "--config", str(b))
    assert both == run_cli("--config", str(b), "xi", "--u", "2")
    assert both != run_cli("--config", str(a), "xi", "--u", "2")


def test_missing_config_file_exit1(tmp_path):
    missing = tmp_path / "missing.cfg"
    code, out, err = run_cli("--config", str(missing), "xi", "--u", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_missing_env_config_file_exit1(tmp_path, monkeypatch):
    missing = tmp_path / "missing.cfg"
    monkeypatch.setenv("SMOOTHCIRCLE_CONFIG", str(missing))
    code, out, err = run_cli("xi", "--u", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(missing) in err


def test_undecodable_config_file_exit1(tmp_path):
    cfgfile = tmp_path / "binary.cfg"
    cfgfile.write_bytes(b"\xff\xfe\x00node_budget=10\n")
    code, out, err = run_cli("--config", str(cfgfile), "xi", "--u", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(cfgfile) in err


@pytest.mark.parametrize(
    "argv",
    [
        ("rho", "--u", "nan"),
        ("compare", "--grid-x", "1e400", "--grid-y", "10"),
        ("alpha", "--x", "inf", "--y", "100"),
        ("hval", "--sigma", "nan", "--y", "100"),
        ("alpha", "--u", "1000", "--y", "1000000"),  # x = y**u overflows
    ],
)
def test_non_finite_input_exit1(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("xi", "--u", ","),
        ("rho", "--u", ","),
        ("primesums", "--x", ","),
        ("compare", "--grid-x", ",", "--grid-y", "10"),
    ],
)
def test_empty_list_option_exit1(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1


def test_compare_far_tail_thm2_finite_and_goswami_flagged():
    # u = 150: rho(u) is clamped below 1e-300, the saddle form of rho is not
    code, out, _ = run_cli("compare", "--grid-x", "1e300", "--grid-y", "100")
    assert code == 0
    row = parse_csv(out)[0]
    thm2 = float(row["thm2"])
    assert math.isfinite(thm2) and thm2 > 0
    assert float(row["goswami"]) > 0 or "rho-underflow" in row["flags"].split(";")


def test_hval_sigma_out_of_range_exit1():
    # every term of phi_1 underflows to 0: a bad input, not a failed convergence
    code, out, err = run_cli("hval", "--sigma", "2000", "--y", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "sigma" in err


def test_compare_huge_u_keeps_the_row():
    # u = 1023, past dickman._U_CUT: rho reads 0 by its Laplace bound, no table
    code, out, _ = run_cli("compare", "--grid-x", "1e308", "--grid-y", "2")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["goswami"]) == 0.0
    assert float(row["thm2"]) == 0.0  # log thm2 is about -7476
    flags = row["flags"].split(";")
    assert "rho-underflow" in flags
    assert "underflow-logspace" in flags
