import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothcircle import cli, euler, prime_sums
from smoothcircle.cli import main
from smoothcircle.euler import h_value


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


def test_exact_y_far_above_x():
    # every n <= 10 is 10-smooth: the primes are sieved to x, not to y
    code, out, err = run_cli("exact", "--x", "10", "--y", "1000000000000000000")
    assert code == 0 and err == ""
    assert out.strip().splitlines()[-1] == "10,1000000000000000000,36,10,recursive,1"


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
    # at (1e30, 1000) the closed-form seed lies below alpha and every Newton
    # iterate after it too, so the known upper end, inf, is still the
    # bracket's
    code, out, _ = run_cli("alpha", "--x", "1e30", "--y", "1000")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["bracket_hi"] == "inf"
    assert float(row["bracket_lo"]) < float(row["alpha"]) < float(row["bracket_hi"])
    code, out, _ = run_cli("alpha", "--x", "1e30", "--y", "1000", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["bracket_hi"] == "inf"
    assert row["bracket_lo"] < row["alpha"] < float(row["bracket_hi"])
    # at (1e30, 1e6) the model seed lands above alpha: both ends are finite
    code, out, _ = run_cli("alpha", "--x", "1e30", "--y", "1000000")
    assert code == 0
    row = parse_csv(out)[0]
    assert row["bracket_hi"] != "inf"
    assert float(row["bracket_lo"]) < float(row["alpha"]) < float(row["bracket_hi"]) < math.inf


def test_alpha_via_u():
    code, out, _ = run_cli("alpha", "--u", "2", "--y", "2")
    assert code == 0
    assert float(parse_csv(out)[0]["alpha"]) == pytest.approx(math.log2(1.5), abs=1e-12)


@pytest.mark.parametrize("command", ["alpha", "estimate"])
@pytest.mark.parametrize(
    "given, message",
    [
        (("--x", "1e6", "--u", "5"), "argument --u: not allowed with argument --x"),
        (("--u", "5", "--x", "1e6"), "argument --x: not allowed with argument --u"),
        ((), "one of the arguments --x --u is required"),
    ],
)
def test_x_and_u_are_exclusive_and_one_is_required(command, given, message):
    code, out, err = run_cli(command, *given, "--y", "10")
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: smoothcircle {command}")
    assert err.count("error:") == 1 and err.rstrip("\n").endswith(f"error: {message}")


@pytest.mark.parametrize("command", ["alpha", "estimate"])
def test_x_or_u_alone_names_the_same_cell(command):
    # 10.0 ** 3 is 1000.0 exactly, so the two rows are the same bytes
    code_x, out_x, _ = run_cli(command, "--x", "1000", "--y", "10")
    code_u, out_u, _ = run_cli(command, "--u", "3", "--y", "10")
    assert code_x == code_u == 0
    assert out_x == out_u and parse_csv(out_x)[0]["x"] == "1000"


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
    assert row["flags"] == ""


# log H at t = 0: finite where p^-sigma rounds to 1 but 1/(p^sigma - 1)
# does not (1e-20, and 1e-76, where phi_4's sum overflows and reads inf),
# inf once 1/expm1(sigma log p) overflows (5e-324)
_HVAL_PHI = {"0.3": 1914.734017962, "1e-20": 5093048.5188598847,
             "1e-76": 20266365.875141632, "5e-324": math.inf}


@pytest.mark.parametrize(
    "sigma, t, parts, flag",
    [
        ("0.3", "0", ("inf", "0"), "overflow-logspace"),
        ("0.3", "1", ("-inf", "-inf"), "overflow-logspace"),
        ("0.05", "3", ("-0", "-0"), "underflow-logspace"),
        ("1e-20", "0", ("inf", "0"), "overflow-logspace"),
        ("1e-300", "1", ("-inf", "inf"), "overflow-logspace"),
        ("5e-324", "0", ("inf", "0"), "overflow-logspace"),
        ("5e-324", "1", ("-inf", "inf"), "overflow-logspace"),
        ("1e-76", "0", ("inf", "0"), "overflow-logspace"),
    ],
)
def test_hval_flags_h_outside_float_range(sigma, t, parts, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli("hval", "--sigma", sigma, "--t", t, "--y", "1000000")
    assert (code, err) == (0, "")
    assert "nan" not in out
    row = parse_csv(out)[0]
    assert (row["re"], row["im"]) == parts
    assert row["flags"] == flag
    if t == "0":
        assert float(row["phi"]) == pytest.approx(_HVAL_PHI[sigma], rel=1e-12)
        if sigma == "1e-76":
            assert row["phi4"] == "inf"
    else:
        assert row["phi"] == ""


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
    cfgfile.write_text("node_budget=10\n# comment line\n")
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
    a = tmp_path / "a.cfg"
    a.write_text("node_budget=1000000\n")
    b = tmp_path / "b.cfg"
    b.write_text("node_budget=1000001\n")
    _, out1, _ = run_cli("--config", str(a), "xi", "--u", "2")
    _, out2, _ = run_cli("--config", str(b), "xi", "--u", "2")
    h1 = out1.split("\n")[0].split("config=")[1]
    h2 = out2.split("\n")[0].split("config=")[1]
    assert h1 != h2  # different config, different hash
    assert out1.split("\n")[1:] == out2.split("\n")[1:]  # same numbers


def test_bad_config_key(tmp_path):
    # Every bad line of a config file exits 1 with one error naming its
    # path and line.
    for line, reason in [
        ("frobnicate=1", "unknown config key"),
        ("node_budget=0", "must be positive"),
        ("node_budget", "expected key=value"),
        ("node_budget=abc", "bad value for node_budget"),
    ]:
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"# line 1\n{line}\n")
        code, out, err = run_cli("--config", str(cfgfile), "xi", "--u", "2")
        assert code == 1 and out == "", line
        assert err.startswith(f"error: {cfgfile}:2: ") and reason in err, line
        assert len(err.splitlines()) == 1, line


@pytest.mark.parametrize(
    "line",
    [
        "residual_tol=1e-10",
        "sieve_segment_size=4096",
        "epsilon0=0.2",
        "lambda=0.3",
        "output_format=json",
    ],
)
def test_removed_config_keys_exit1(tmp_path, line):
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text(line + "\n")
    code, out, err = run_cli("--config", str(cfgfile), "exact", "--x", "10", "--y", "2")
    assert code == 1 and out == ""
    assert "unknown config key" in err


def test_module_entrypoint_subprocess():
    # this checkout's __main__.py, not whatever copy the caller's path holds
    env = os.environ | {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "smoothcircle", "exact", "--x", "10", "--y", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[-1] == "10,2,16,4,recursive,1"


def test_console_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["smoothcircle", "exact", "--x", "10", "--y", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.console_main()
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip().split("\n")[-1] == "10,2,16,4,recursive,1"


# The column line of each subcommand; every JSON row has the same keys in
# the same order.
COLUMN_LINES = [
    (("exact", "--x", "10", "--y", "2"), "x,y,value,terms,method,nodes"),
    (("alpha", "--x", "4", "--y", "2"),
     "x,y,u,alpha,residual,iters,bracket_lo,bracket_hi"),
    (("hval", "--sigma", "1", "--y", "3"), "sigma,t,y,re,im,phi,phi1,phi2,phi3,phi4,flags"),
    (("hval", "--sigma", "1", "--t", "2.5", "--y", "3"),
     "sigma,t,y,re,im,phi,phi1,phi2,phi3,phi4,flags"),
    (("estimate", "--x", "100", "--y", "10"),
     "x,y,u,alpha,residual,exact,thm1,thm2,goswami,"
     "rankin,ratio_thm1,ratio_thm2,ratio_goswami,flags"),
    (("compare", "--grid-x", "100,1000", "--grid-y", "10", "--with-exact"),
     "x,y,u,alpha,residual,exact,thm1,thm2,goswami,"
     "rankin,ratio_thm1,ratio_thm2,ratio_goswami,flags"),
    (("perron", "--x", "20.5", "--y", "10", "--T", "25"), "x,y,T,alpha,integral,exact,error"),
    (("xi", "--u", "1,10"), "u,value"),
    (("rho", "--u", "0.5,2"), "u,value"),
    (("primesums", "--x", "10,100", "--sigma", "1"), "x,sigma,twist,value,main_term,deviation"),
    (("diffcheck", "--x", "1000", "--y", "50", "--z", "5"), "x,y,z,u,alpha,lhs,scale,ratio"),
]


@pytest.mark.parametrize("argv, columns", COLUMN_LINES, ids=[a[0] for a, _ in COLUMN_LINES])
def test_column_order(argv, columns):
    code, out, _ = run_cli(*argv)
    lines = out.strip().split("\n")[1:]
    assert code == 0 and lines[0] == columns
    code, out, _ = run_cli(*argv, "--format", "json")
    keys = [",".join(row) for row in json.loads(out)["rows"]]
    assert code == 0 and keys == [columns] * (len(lines) - 1)


@pytest.mark.parametrize("sigma", ["0.05", "0.3", "0.6", "2", "1e-4"])
def test_hval_on_axis_is_h_value(sigma):
    # H at t = 0 comes from the phi pass: bitwise the value h_value gives
    row = parse_csv(run_cli("hval", "--sigma", sigma, "--y", "1000000")[1])[0]
    hv = h_value(float(sigma), 1000000)
    assert (row["re"], row["im"]) == (format(hv.real, ".17g"), format(hv.imag, ".17g"))


def test_hval_on_axis_makes_one_kernel_pass(monkeypatch):
    calls = []
    kernel_pass = euler._kernel_pass

    def counting(*args):
        calls.append(args)
        return kernel_pass(*args)

    monkeypatch.setattr(euler, "_kernel_pass", counting)
    assert run_cli("hval", "--sigma", "0.6", "--y", "1000000")[0] == 0
    assert len(calls) == 1


def test_benchmark_invocations_sum_without_the_fallback(monkeypatch):
    # The nine estimates cells, hval on the axis and both primesums
    # invocations: every kernel order and every prime sum past one block is
    # certified block by block, so neither prime_terms nor the prime sums'
    # whole-array csum runs.
    fallbacks = []

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            fallbacks.append((module.__name__, name))
            return fn(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((euler, "prime_terms"), (prime_sums, "csum")):
        recording(module, name)
    for argv in (
        ["compare", "--grid-x", "1e12,1e30,1e300", "--grid-y", "100,10000,1000000"],
        ["hval", "--sigma", "0.6", "--y", "1000000"],
        ["primesums", "--x", "1e6,1e7", "--sigma", "0.5"],
        ["primesums", "--x", "1e7", "--sigma", "0.9", "--twist"],
    ):
        assert run_cli(*argv)[0] == 0, argv
    assert fallbacks == []


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


def test_one_parser_prints_what_fresh_parsers_print(tmp_path, monkeypatch):
    # main reuses one parser per process; a run of calls with the global
    # flags before, after and without the subcommand, and a usage error in
    # between, prints what a fresh parser per call prints
    budget = tmp_path / "budget.cfg"
    budget.write_text("node_budget=10\n")
    calls = [
        ("--format", "json", "xi", "--u", "2"),
        ("xi", "--u", "2", "--format", "json"),
        ("xi", "--u", "2"),
        ("xi", "--u", "nan"),
        ("exact", "--x", "100000", "--y", "30", "--config", str(budget)),
        ("exact", "--x", "100000", "--y", "30"),
        ("--config", str(budget), "--format", "json", "xi", "--u", "3"),
        ("xi", "--u", "3"),
        ("hval",),
        ("xi", "--u", "2", "--format", "json"),
    ]
    reused = [run_cli(*argv) for argv in calls]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == [run_cli(*argv) for argv in calls]
    assert [r[0] for r in reused] == [0, 0, 0, 1, 2, 0, 0, 0, 1, 0]


def test_hval_off_the_axis_pinned():
    # the line product at center 0, which the Perron anchoring leaves as it
    # was: these bytes at numpy's AVX-512 code paths; its AVX2 and baseline
    # paths move the last two digits (5.6e-15 of |H| at baseline)
    code, out, _ = run_cli("hval", "--sigma", "0.6", "--t", "3", "--y", "1000000")
    assert code == 0
    header, row = out.splitlines()[1:]
    assert header == "sigma,t,y,re,im,phi,phi1,phi2,phi3,phi4,flags"
    fields = row.split(",")
    assert fields[:3] == ["0.59999999999999998", "3", "1000000"] and fields[5:] == [""] * 6
    want = complex(-0.0018256342629156838, 0.015788130430851689)
    assert abs(complex(float(fields[3]), float(fields[4])) - want) <= 1e-13 * abs(want)


def test_global_flag_later_occurrence_wins(tmp_path):
    code, out, _ = run_cli("--format", "json", "xi", "--u", "2", "--format", "csv")
    assert code == 0 and out == run_cli("xi", "--u", "2")[1]
    code, out, _ = run_cli("--format", "csv", "xi", "--u", "2", "--format", "json")
    assert code == 0 and json.loads(out)["rows"][0]["u"] == 2.0

    # a's budget exhausts this count (exit 2), b's (the default) does not
    a = tmp_path / "a.cfg"
    a.write_text("node_budget=10\n")
    b = tmp_path / "b.cfg"
    b.write_text("node_budget=1000000000\n")
    argv = ("exact", "--x", "100000", "--y", "30")
    both = run_cli("--config", str(a), *argv, "--config", str(b))
    assert both[0] == 0 and both == run_cli("--config", str(b), *argv)
    assert both != run_cli("--config", str(a), *argv)


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
        ("alpha", "--x", "abc", "--y", "10"),
        ("compare", "--grid-x", "100", "--grid-y", "1.5"),  # y must be an integer
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
        ("alpha", "--y", "10"),  # neither --x nor --u
    ],
)
def test_empty_list_option_exit1(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert sum(ln.startswith("error:") for ln in err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--grid-x", "100", "--grid-y", "1"),
        ("compare", "--grid-x", "-5", "--grid-y", "100"),
        ("compare", "--grid-x", "1", "--grid-y", "100", "--with-exact"),
        ("compare", "--grid-x", "1000,0.5", "--grid-y", "10"),  # one bad x stops the grid
        ("estimate", "--u", "-1", "--y", "100"),  # x = 0.01
    ],
)
def test_compare_and_estimate_reject_x_at_most_1_or_y_below_2(argv):
    # each used to print one empty, unflagged row and exit 0
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


@pytest.mark.parametrize(
    "argv, reason",
    [
        # y = 1e18: the prime sieve's result array would need 215 PiB,
        # beyond any address space, so the allocation is refused at once
        (("hval", "--sigma", "0.6", "--y", "1000000000000000000"), "Unable to allocate"),
        (("primesums", "--x", "1e18"), "Unable to allocate"),
        (("compare", "--grid-x", "1e30", "--grid-y", "1000000000000000000"), "Unable to allocate"),
        # 3.7e14 Perron base panels: refused before any panel is allocated
        (("perron", "--x", "1.5", "--y", "10", "--T", "1e15"), "base panels"),
        # y = 1e20: the sieve's index range ends below 2^63, so it is refused
        # before numpy is asked, as a MemoryError, not a ValueError
        (("hval", "--sigma", "2", "--y", "100000000000000000000"), "Unable to allocate"),
        (("compare", "--grid-x", "1e30", "--grid-y", "1e20"), "Unable to allocate"),
        (("primesums", "--x", "1e300", "--sigma", "1"), "Unable to allocate"),
        (("exact", "--x", "100000000000000000000", "--y", "100000000000000000000"),
         "Unable to allocate"),
    ],
)
def test_exhausted_resource_exit2(argv, reason):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err and len(err.splitlines()) == 1


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


# Examples of the exit-contract property test; a deeper run sets this variable.
CLI_EXAMPLES = int(os.environ.get("SMOOTHCIRCLE_TEST_CLI_EXAMPLES", "100"))
# Option values at the extremes.  Every y is at most 1e6, or at least 1e20,
# which is refused before anything is allocated; exact, perron and
# diffcheck take small x only, so that no example counts for long.
_REALS = ["0", "-0", "5e-324", "1e-76", "1e-300", "1e300", "-1e300", "1.7e308",
          "-1", "0.5", "2", "7.5", "nan", "inf", "-inf", "abc"]
_YS = ["0", "-7", "1", "2", "100", "1000000", "100000000000000000000",
       "-100000000000000000000", "1" + "0" * 40, "1.5", "1e6"]
_SMALL_XS = ["0", "-7", "1", "2", "10", "1000", "100000", "1.5"]
_PERRON_XS = ["0", "-3.5", "5e-324", "1e-76", "0.5", "1.5", "20.5", "1000.5", "nan", "inf"]
_PERRON_TS = ["0", "-1", "5e-324", "1e-76", "1", "1e300", "1.7e308", "nan", "inf"]
_LIST_REALS = ["0", "5e-324", "1e-76", "1", "2", "100", "1e6", "1e300", "-1e300", "1.7e308",
               "nan", "inf", ""]


@st.composite
def _cli_argv(draw):
    """A subcommand with option values from the pools, each given as
    --name=value so that a value such as -1e300 is not read as an option."""

    def one(pool):
        return draw(st.sampled_from(pool))

    def many(pool):
        return ",".join(draw(st.lists(st.sampled_from(pool), max_size=3)))

    command = one(["exact", "alpha", "hval", "estimate", "compare", "perron",
                   "xi", "rho", "primesums", "diffcheck"])
    if command == "exact":
        opts = {"x": one(_SMALL_XS), "y": one(_YS),
                "method": one(["auto", "sieve", "recursive"])}
    elif command in ("alpha", "estimate"):
        opts = {one(["x", "u"]): one(_REALS), "y": one(_YS)}
    elif command == "hval":
        opts = {"sigma": one(_REALS), "t": one(_REALS), "y": one(_YS)}
    elif command == "compare":
        opts = {"grid-x": many(_LIST_REALS), "grid-y": many(_YS)}
    elif command == "perron":
        opts = {"x": one(_PERRON_XS), "y": one(_YS), "T": one(_PERRON_TS)}
    elif command in ("xi", "rho"):
        opts = {"u": many(_LIST_REALS)}
    elif command == "primesums":
        opts = {"x": many(_LIST_REALS), "sigma": one(_REALS)}
    else:
        opts = {"x": one(_SMALL_XS), "y": one(_YS), "z": one(_REALS)}
    argv = [command] + [f"--{k}={v}" for k, v in opts.items()]
    # the oracle only where x is small, so that it does not count for long
    if command in ("estimate", "compare") and draw(st.booleans()):
        small = {"x": one(_SMALL_XS)} if command == "estimate" else {"grid-x": many(_SMALL_XS)}
        argv = [command] + [f"--{k}={v}" for k, v in (opts | small).items()] + ["--with-exact"]
    if command == "primesums" and draw(st.booleans()):
        argv.append("--twist")
    return argv + one([[], ["--format=csv"], ["--format=json"]])


def _non_finite(value) -> bool:
    try:
        return not math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


@settings(max_examples=CLI_EXAMPLES, deadline=None)
@given(_cli_argv())
@example(["hval", "--sigma=1e-76", "--y=1000000"])
@example(["hval", "--sigma=1e-300", "--y=2"])  # phi_2..phi_4 inf, H finite
@example(["hval", "--sigma=5e-324", "--t=5e-324", "--y=1000000"])  # a factor of 0
@example(["hval", "--sigma=1.7e308", "--t=1.7e308", "--y=100"])  # t log p overflows
@example(["perron", "--x=1.5", "--y=10", "--T=1.7e308"])  # T / period overflows
@example(["diffcheck", "--x=1", "--y=0", "--z=1"])
@example(["estimate", "--u=0.5", "--y=-7"])  # y**u would be complex
def test_exit_contract(argv):
    # whatever the options: exit 0, 1 or 2 with no exception, and on 0
    # every float column is finite or its row carries a flag; alpha's
    # bracket_hi reads inf while no iterate has passed alpha, by design
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code != 0:
        return
    if "--format=json" in argv:
        rows = json.loads(out)["rows"]
    else:
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    for row in rows:
        values = [v for k, v in row.items() if k != "bracket_hi"]
        assert row.get("flags") or not any(map(_non_finite, values)), (argv, row)
