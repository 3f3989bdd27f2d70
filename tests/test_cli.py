import ast
import contextlib
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ricci_lab
from ricci_lab import cli
from ricci_lab import phase_portrait as pp
from ricci_lab.errors import RicciLabError

# One short run of every subcommand; each writes its output to --out.
SUBCOMMANDS = {
    "classify": ["classify", "--m", "0.5", "--ell", "0.8"],
    "verify": ["verify", "--m", "0.5", "--ell", "0.8", "--n", "64"],
    "period": ["period", "--m", "0.5", "--ell", "0.8"],
    "theta": ["theta", "--m", "0.25", "--ell", "0.5"],
    "solve": ["solve", "--m", "0.51"],
    "scan": ["scan", "--m-min", "0.4", "--m-max", "0.6", "--ell-min", "0.66",
             "--ell-max", "0.74", "--nm", "2", "--nell", "2"],
    "profile": ["profile", "--m", "0.25", "--ell", "0.5", "--p", "1",
                "--q", "1", "--ns", "32"],
    "mesh": ["mesh", "--m", "0.25", "--ell", "0.5", "--p", "1", "--q", "1",
             "--ns", "32", "--nt", "8", "--project"],
    "minimal": ["minimal", "--j", "0.6"],
}


GOLDEN_SHA256 = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "cli_sha256.json").read_text())


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_constant_boundary_text(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--c", "1", "--m", "0.25",
                               "--ell", "0.5")
        assert code == 0
        assert out.strip() == "BoundaryConstant"

    def test_json_inputs_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--c", "1", "--m", "0.51",
                               "--ell", "0.73", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"] == {"c": 1.0, "m": 0.51, "ell": 0.73}
        assert record["classification"] == "InteriorLambdaPrime"


class TestVerify:
    def test_residual_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "0.5", "--ell", "0.8")
        assert code == 0
        record = json.loads(out)
        assert record["max_normalized_residual"] <= 1e-8

    def test_outside_family_is_precondition_failure(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--m", "-1", "--ell", "0.8")
        assert code == 2
        assert "precondition" in err


class TestPeriod:
    def test_both_methods_report_pi(self, capsys):
        code, out, _ = run_cli(capsys, "period", "--a", "4", "--c", "1",
                               "--m", "0.5", "--ell", "0.8")
        assert code == 0
        record = json.loads(out)
        assert record["period_integral"] == pytest.approx(math.pi, abs=1e-10)
        assert record["orbit_period"] == pytest.approx(math.pi, abs=1e-8)

    def test_degenerate_level_is_precondition_failure(self, capsys):
        code, _, _ = run_cli(capsys, "period", "--a", "4", "--m", "1",
                             "--ell", "1")
        assert code == 2


class TestThetaAndSolve:
    def test_solve_embedded_example(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--c", "1", "--m", "0.51",
                               "--p", "1", "--q", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["inputs"] == {"c": 1.0, "m": 0.51, "p": 1, "q": 1}
        assert abs(record["ell"] - 0.73) < 5e-3
        assert abs(record["Theta"] - 2.0 * math.pi) <= 1e-10
        assert record["embedded"] is True

    def test_solve_unreachable_target_is_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--m", "0.51", "--p", "1",
                               "--q", "8")
        assert code == 3
        assert "numerical" in err

    def test_theta_reports_closure(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--m", "0.25", "--ell", "0.5")
        assert code == 0
        record = json.loads(out)
        assert record["Theta"] == pytest.approx(math.sqrt(2.0) * math.pi)
        assert record["closed"] is False

    def test_determinism(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "solve", "--m", "0.51")
            outs.append(out)
        assert outs[0] == outs[1]


class TestScanProfileMesh:
    def test_scan_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--m-min", "0.4", "--m-max", "0.6",
                               "--ell-min", "0.66", "--ell-max", "0.74",
                               "--nm", "2", "--nell", "2")
        assert code == 0
        assert out.splitlines()[0] == "m,ell,Theta,closed,p,q,embedded"
        assert len(out.splitlines()) == 5

    def test_profile_csv(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, _, _ = run_cli(capsys, "profile", "--m", "0.25", "--ell", "0.5",
                             "--p", "1", "--q", "1", "--ns", "32",
                             "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "s,theta,x,y,z,w"
        assert len(lines) == 33

    def test_mesh_obj_output(self, capsys, tmp_path):
        target = tmp_path / "torus.obj"
        code, _, _ = run_cli(capsys, "mesh", "--m", "0.25", "--ell", "0.5",
                             "--p", "1", "--q", "1", "--ns", "32", "--nt", "8",
                             "--project", "--out", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 32 * 8
        assert sum(1 for ln in lines if ln.startswith("f ")) == 32 * 8

    def test_irrational_theta_without_pq_fails(self, capsys):
        code, _, _ = run_cli(capsys, "profile", "--m", "0.51", "--ell", "0.74")
        assert code == 2


class TestMinimal:
    def test_forward(self, capsys):
        code, out, _ = run_cli(capsys, "minimal", "--j", "0.6")
        assert code == 0
        record = json.loads(out)
        assert record["m"] == pytest.approx(0.16)
        assert record["ell"] == 0.5

    def test_inverse(self, capsys):
        code, out, _ = run_cli(capsys, "minimal", "--m", "0.16")
        assert code == 0
        assert json.loads(out)["j"] == pytest.approx(0.6)

    def test_requires_exactly_one_flag(self, capsys):
        assert run_cli(capsys, "minimal")[0] == 2
        assert run_cli(capsys, "minimal", "--j", "0.5", "--m", "0.1")[0] == 2


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 64

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 64

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "classify", "--c", "1")[0] == 64

    def test_malformed_number(self, capsys):
        assert run_cli(capsys, "classify", "--m", "abc", "--ell", "0.5")[0] == 64


class TestNegativeNumbers:
    """Option values may be negative numbers in any spelling float() takes,
    written after a space as well as after '='."""

    @pytest.mark.parametrize("argv, want", [
        (["period", "--a", "-2", "--c", "-1", "--m", "-1", "--ell", "-2.7e-05"],
         0),
        (["period", "--a=-2", "--c=-1", "--m=-1", "--ell=-2.7e-05"], 0),
        (["classify", "--m", "-1E3", "--ell", "0.5"], 0),
        (["classify", "--m", "-.5e+1", "--ell", "0.5"], 0),
        (["period", "--m", "-inf", "--ell", "0.8"], 2),
        (["period", "--m=-inf", "--ell", "0.8"], 2),
        (["classify", "--m", "-Infinity", "--ell", "0.5"], 2),
        (["classify", "--m", "-nan", "--ell", "0.5"], 2),
        (["classify", "--m", "-e5", "--ell", "0.5"], 64),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit {v}")
    def test_exit_code(self, capsys, argv, want):
        code, out, err = run_cli(capsys, *argv)
        assert code == want, err
        assert (out == "") == (code != 0)

    def test_spaced_and_equals_forms_agree(self, capsys):
        values = (("a", "-2"), ("c", "-1"), ("m", "-1"), ("ell", "-2.7e-05"))
        spaced = [w for name, v in values for w in (f"--{name}", v)]
        joined = [f"--{name}={v}" for name, v in values]
        assert (run_cli(capsys, "period", *spaced)
                == run_cli(capsys, "period", *joined))

    def test_classify_reads_negative_exponent_as_a_value(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--m", "-1E3", "--ell",
                               "0.5", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"inputs": {"c": 1.0, "m": -1000.0,
                                              "ell": 0.5},
                                   "classification": "Outside"}


class TestInvalidInputs:
    @pytest.mark.parametrize("argv", [
        ["classify", "--m", "nan", "--ell", "0.5"],
        ["classify", "--m", "0.5", "--ell", "inf"],
        ["verify", "--m", "0.5", "--ell", "nan"],
        ["verify", "--m", "0.5", "--ell", "0.8", "--n", "0"],
        ["verify", "--m", "0.5", "--ell", "0.8", "--n", "-1"],
        ["period", "--a", "3", "--m", "0.5", "--ell", "nan"],
        ["scan", "--m-min", "0.4", "--m-max", "0.6", "--ell-min", "0.66",
         "--ell-max", "nan", "--nm", "2", "--nell", "2"],
        ["scan", "--m-min", "0.4", "--m-max", "0.6", "--ell-min", "0.66",
         "--ell-max", "0.74", "--nm", "-1", "--nell", "2"],
        ["minimal", "--c", "nan", "--j", "0.5"],
        ["minimal", "--c", "inf", "--j", "0.5"],
        ["theta", "--m", "0.51", "--ell", "0.73", "--tol", "nan"],
        # no cell reaches the closure test, so tol was echoed as NaN
        ["scan", "--m-min", "2", "--m-max", "2", "--ell-min", "2",
         "--ell-max", "2", "--tol", "nan", "--format", "json"],
    ], ids=" ".join)
    def test_is_precondition_failure(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, want", [
    # classify read ell^2 = inf as the constant boundary: ZeroDivisionError
    (["theta", "--m", "2", "--ell", "1.3407807929942597e+154"], 2),
    # ell^2, c m < 1e-14 read as the constant boundary: ZeroDivisionError
    (["theta", "--m", "1e-300", "--ell", "1e-300"], 2),
    # constant boundary at c m = 1 is not immersible: ZeroDivisionError
    (["theta", "--m", "1", "--ell", "1"], 2),
    (["profile", "--m", "1", "--ell", "1", "--p", "1", "--q", "1"], 2),
    # the fourth derivative of f overflows: the residual was NaN, exit 0
    (["verify", "--c", "2.248430648807506e-169", "--m", "2", "--ell", "2",
      "--n", "8"], 3),
    # |K - c|^3 overflows: OverflowError
    (["verify", "--c", "5.643803094122361e+102", "--m",
      "5.529558987192782e+102", "--ell", "5.586389005526968e+102", "--n", "8"],
     3),
    # Theta is flat in its last bits at c m = 1e-32: ZeroDivisionError
    (["solve", "--c", "1e-16", "--m", "1e-16", "--q", "7"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else f"exit {v}")
def test_extreme_inputs_exit_with_typed_errors(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    assert code == want, err
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


class TestOut:
    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_out_file_holds_stdout_bytes(self, capsys, tmp_path, name):
        code, out, _ = run_cli(capsys, *SUBCOMMANDS[name])
        assert code == 0
        target = tmp_path / "out.txt"
        code, out_with_file, _ = run_cli(capsys, *SUBCOMMANDS[name],
                                         "--out", str(target))
        assert code == 0
        assert out_with_file == ""
        assert target.read_text() == out

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_unwritable_out_is_io_failure(self, capsys, tmp_path, name):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *SUBCOMMANDS[name],
                                 "--out", str(target))
        assert code == 74
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert str(target) in err


def subprocess_env():
    src = str(pathlib.Path(ricci_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point_runs_without_warning():
    for module in ("ricci_lab.cli", "ricci_lab"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "minimal", "--j", "0.5"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, module
        assert proc.stderr == "", module
        assert json.loads(proc.stdout)["m"] == pytest.approx(0.1875)


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256))
def test_stdout_matches_golden_sha256(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 0, err
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_SHA256[argv], (
        f"argv {argv.split()}: stdout SHA-256 {got}, golden "
        f"{GOLDEN_SHA256[argv]}. A change that moves this output on purpose "
        "updates tests/golden/cli_sha256.json; a numpy, scipy or libm "
        "update can also move last digits.")


def test_theta_next_to_the_upper_boundary(capsys):
    code, out, _ = run_cli(capsys, "theta", "--m", "0.51", "--ell",
                           "0.7549999999")
    assert code == 0
    assert json.loads(out)["Theta"] == pytest.approx(25.70779135429, abs=5e-12)


def test_imports_load_no_scipy():
    period = "from ricci_lab import cli; assert cli.run({!r}) == 0"
    for code in ("import ricci_lab.cli", "import ricci_lab.phase_portrait",
                 "from ricci_lab.immersion import solve_for_ell; "
                 "solve_for_ell(1.0, 0.51, 1, 1)",
                 period.format(["period", "--a", "4", "--c", "1", "--m", "0.5",
                                "--ell", "0.8", "--out", os.devnull]),
                 period.format(["period", "--a", "3", "--c", "1", "--m", "0.5",
                                "--ell", "2.0", "--out", os.devnull])):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys; {code}; print(sorted(k for k in sys.modules "
             "if k.startswith('scipy')))"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", code


def test_no_source_file_imports_scipy():
    for path in sorted(pathlib.Path(ricci_lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), path


# f_derivs overflows at this c; the residual check reports it as one line
OVERFLOWING_VERIFY = "verify --c 2.248430648807506e-169 --m 2 --ell 2"


@pytest.mark.parametrize("argv", sorted(
    a for a in GOLDEN_SHA256
    if a.split()[0] in ("theta", "scan", "mesh", "period", "verify"))
    + [OVERFLOWING_VERIFY])
def test_runs_with_runtime_warnings_as_errors(argv):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ricci_lab",
         *argv.split()],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    if argv == OVERFLOWING_VERIFY:
        assert proc.returncode == cli.EXIT_NUMERICAL, proc.stderr
        assert proc.stderr.startswith("numerical failure: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        return
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


ANY_VALUE = st.one_of(
    st.sampled_from([2.0, 3.0, 4.0, 6.0, -2.0, 1.0, -1.0, 0.5, 0.0]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def period_values(draw):
    """(a, c, m, ell): four arbitrary values, or a shared-sign (a, c, m) with
    ell on, below or above its window floor (above the window for a < 2)."""
    if draw(st.booleans()):
        return [draw(ANY_VALUE) for _ in range(4)]
    a = draw(st.one_of(st.sampled_from([2.0, 3.0, 4.0, 6.0, -2.0]),
                       st.floats(-8.0, 8.0)))
    sign = -1.0 if a < 0 else 1.0
    c = sign * draw(st.floats(1e-3, 1e3))
    m = sign * draw(st.floats(1e-3, 1e3))
    try:
        floor = pp.admissible_energy_window(a, c, m).lower
    except RicciLabError:
        floor = 0.0
    offset = draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0),
                            st.floats(1e-12, 1e2)))
    return [a, c, m, floor + offset]


def option(name, value, spaced):
    """--name=value, or --name value as two words."""
    text = value if isinstance(value, str) else repr(value)
    return [f"--{name}", text] if spaced else [f"--{name}={text}"]


@settings(deadline=None, max_examples=60)
@given(period_values(), st.lists(st.booleans(), min_size=4, max_size=4))
@example([1e300, 3.0, 2.2622318590183905e92, 3.937793972943164e146],
         [False] * 4)
@example([1.2177734668493051e-123, 3.97891547269854e-84, 2.302052095456856e84,
          1.1852212403078095], [False] * 4)
@example([-2.0, -1.6037378857936125e152, -3.961758971523482e-172, 2.0],
         [False] * 4)
@example([-2.0, -1.0, -1.0, -2.7e-05], [True] * 4)
def test_period_argv_exits_with_documented_codes(values, spaced):
    argv = ["period"] + [word for name, value, sp
                         in zip(("a", "c", "m", "ell"), values, spaced)
                         for word in option(name, value, sp)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    # every float repr parses in either form, so no usage error
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        record = json.loads(out.getvalue())
        assert all(math.isfinite(record[k]) for k in
                   ("period_integral", "orbit_period", "difference")), argv
    else:
        assert out.getvalue() == ""


# A value for a float option: arbitrary, or near the admissible set.
NUMBER = st.one_of(ANY_VALUE, st.floats(0.01, 1.5))
Q_MAX = st.integers(-2, 60)
# Tori that close at c = 1: (p, q) = (1, 1) and (3, 2).
CLOSING = [("0.51", "0.7302448635193721"), ("0.75", "0.8700023727614555")]

# Options of every subcommand but period (fuzzed above), with sizes kept
# small; None marks a flag without a value.
FUZZ_OPTIONS = {
    "classify": {"c": NUMBER, "m": NUMBER, "ell": NUMBER,
                 "format": st.sampled_from(["text", "json"])},
    "minimal": {"c": NUMBER, "j": NUMBER, "m": NUMBER},
    "theta": {"c": NUMBER, "m": NUMBER, "ell": NUMBER, "q-max": Q_MAX,
              "tol": NUMBER},
    "solve": {"c": NUMBER, "m": NUMBER, "p": st.integers(-2, 8),
              "q": st.integers(-2, 8)},
    "verify": {"c": NUMBER, "m": NUMBER, "ell": NUMBER,
               "n": st.integers(-2, 64)},
    "scan": {"c": NUMBER, "m-min": NUMBER, "m-max": NUMBER,
             "ell-min": NUMBER, "ell-max": NUMBER, "nm": st.integers(-1, 4),
             "nell": st.integers(-1, 4), "tol": NUMBER,
             "format": st.sampled_from(["csv", "json"])},
    # without --p/--q: the closure comes from Theta (_closure_from_args)
    "profile": {"c": NUMBER, "m": NUMBER, "ell": NUMBER,
                "ns": st.integers(24, 48), "q-max": Q_MAX, "tol": NUMBER,
                "format": st.sampled_from(["csv", "json"])},
    "mesh": {"c": NUMBER, "m": NUMBER, "ell": NUMBER,
             "ns": st.integers(24, 40), "nt": st.integers(-2, 8),
             "q-max": Q_MAX, "tol": NUMBER, "project": st.none()},
}


@st.composite
def fuzz_argv(draw, sub):
    """sub with each option present 9 times in 10, in either form; profile
    and mesh draw a closing torus at c = 1 half of the time."""
    options = dict(FUZZ_OPTIONS[sub])
    argv = [sub]
    if sub in ("profile", "mesh") and draw(st.booleans()):
        m, ell = draw(st.sampled_from(CLOSING))
        del options["c"]
        options.update(m=st.just(m), ell=st.just(ell))
    for name, values in options.items():
        if draw(st.integers(0, 9)):
            value = draw(values)
            argv += ([f"--{name}"] if value is None
                     else option(name, value, draw(st.booleans())))
    return argv


@pytest.mark.parametrize("sub", sorted(FUZZ_OPTIONS))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_argv_exits_with_documented_codes(sub, data):
    argv = data.draw(fuzz_argv(sub), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3, 64, 74), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert out.getvalue() == "", argv
    elif out.getvalue().startswith("{"):
        json.loads(out.getvalue(), parse_constant=reject_non_finite)


def reject_non_finite(name):
    raise AssertionError(f"{name} in JSON output")


@pytest.mark.parametrize("sub", ["profile", "mesh"])
def test_closure_detected_without_p_and_q(capsys, sub):
    m, ell = CLOSING[1]
    code, out, err = run_cli(capsys, sub, "--m", m, "--ell", ell, "--ns", "32",
                             *(["--nt", "4"] if sub == "mesh" else
                               ["--format", "json"]))
    assert code == 0, err
    if sub == "profile":
        assert json.loads(out)["winding"]["p"] == 3
    else:
        assert sum(ln.startswith("f ") for ln in out.splitlines()) == 32 * 4


# Each runs in one fresh process, which must still hold no numpy module
# after it; the package's submodules still load on attribute access.
COLD_PATHS = (
    ["classify", "--m", "0.5", "--ell", "0.8"],
    ["classify", "--m", "0.5", "--ell", "0.8", "--format", "json"],
    ["minimal", "--j", "0.6"],
    ["minimal", "--m", "0.16"],
    ["period", "--a", "3", "--m", "0.5", "--ell", "2.0"],
    ["--no-such-flag"],
    [],
)


def test_cold_paths_load_no_numpy():
    script = f"""
import contextlib, io, json, sys
import ricci_lab
from ricci_lab import cli
def numpy_modules():
    return sorted(k for k in sys.modules if k.split(".")[0] == "numpy")
seen = [["import ricci_lab", 0, numpy_modules()]]
for argv in {COLD_PATHS!r}:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    seen.append([" ".join(argv), code, numpy_modules()])
from ricci_lab import mesh_io
print(json.dumps([seen, callable(ricci_lab.immersion.big_theta),
                  callable(mesh_io.scan_theta), "numpy" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen, *loaded = json.loads(proc.stdout)
    assert [code for _, code, _ in seen] == [0, 0, 0, 0, 0, 0, 64, 64]
    for what, _, numpy_modules in seen:
        assert numpy_modules == [], what
    assert loaded == [True, True, True]


# Modules on the numpy-free paths, and the package modules they may import
# when they are imported (function bodies and TYPE_CHECKING blocks aside).
NUMPY_FREE = {"__init__", "_output", "cli", "errors", "phase_portrait",
              "spherical_family"}


def import_time_imports(tree):
    """Import nodes that run when the module is imported."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_free_modules_import_no_numpy_at_module_level():
    package = pathlib.Path(ricci_lab.__file__).parent
    for name in sorted(NUMPY_FREE):
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in import_time_imports(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level == 0:
                names = [node.module]
            else:  # relative: the package modules it brings in
                names = ([f"ricci_lab.{node.module}"] if node.module else
                         [f"ricci_lab.{a.name}" for a in node.names])
            for imported in names:
                assert imported.split(".")[0] != "numpy", (name, imported)
                if imported.startswith("ricci_lab."):
                    assert imported.split(".")[1] in NUMPY_FREE, (name,
                                                                 imported)
