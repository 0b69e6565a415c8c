"""The exit-code contract at the command line: 0 pass, 1 violation, 2
precision, 3 invalid input, for every input, with no traceback.

Integers are read by ``config._integer``, the admitted complex dimensions
are ``config.COMPLEX_DIMS``, and ``errors.exit_code`` (with ``cli.main``'s
two exception types) decides every code.  A property test drives
``cli.main`` with generated body specs, config files and argument lists.
"""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import cxsect
from cxsect import ComplexDim, EuclideanBall, InvalidInputError, NumericalEvaluationError, RunConfig
from cxsect import theorems
from cxsect.cli import main
from cxsect.config import COMPLEX_DIMS, MC_MIN_SAMPLES, _TABLES
from cxsect.spherequad import mc_volume
from cxsect.suite import run_suite

BALL = {"n": 2, "kind": "euclidean", "params": {"radius": 1.0}}
# a coarse configuration, so that a generated run takes milliseconds
COARSE = {
    "product_levels": {"2": 4, "4": 6, "6": 4}, "reduced_levels": {"2": 24, "3": 12, "4": 8},
    "jmax": {"4": 4, "6": 4, "8": 2}, "moduli_res": {"2": 4, "3": 3, "4": 2},
    "phase_res": {"2": 2, "3": 2, "4": 2}, "refine_halvings": 1, "mc_samples": MC_MIN_SAMPLES,
}
# the key of each table as a function of the complex dimension n
TABLE_KEYS = {"product_levels": lambda n: 2 * n - 2, "reduced_levels": lambda n: n,
              "jmax": lambda n: 2 * n, "moduli_res": lambda n: n, "phase_res": lambda n: n}
# the harmonic degree cap per real dimension N (``test_harmonics`` checks the
# blocks up to them)
DEGREE_CAPS = {4: 24, 6: 22, 8: 12}


def call(argv):
    """``cli.main`` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def write_json(directory, name, obj):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def run(tmp_path, args, spec=BALL, config=None):
    """``args`` with "BODY" replaced by a spec file, under a config file."""
    body = write_json(tmp_path, "body.json", spec)
    cfg = write_json(tmp_path, "config.json",
                     {"output_dir": str(tmp_path / "reports"), **(config or {})})
    return call(["--config", cfg] + [body if a == "BODY" else a for a in args])


def subprocess_cli(args, cwd):
    src = os.path.dirname(os.path.dirname(cxsect.__file__))
    return subprocess.run([sys.executable, "-m", "cxsect.cli"] + args, capture_output=True,
                          text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src}, timeout=600)


class TestUsageErrors:
    """A usage error is invalid input (exit 3), not argparse's exit 2, the
    precision code; stderr keeps argparse's usage line and message."""

    @pytest.mark.parametrize("args, message", [
        ([], "the following arguments are required: command"),
        (["section", "BODY", "--grid", "x"], "argument --grid: invalid int value: 'x'"),
        (["volume", "BODY", "--bogus"], "unrecognized arguments: --bogus"),
        (["theorem", "--which", "gamma", "--nmax", "170.0"],
         "argument --nmax: invalid int value: '170.0'"),
        (["theorem", "--which", "nope"], "argument --which: invalid choice: 'nope'"),
    ], ids=["no-command", "grid-x", "unknown-flag", "nmax-float", "which-choice"])
    def test_exit3_with_usage_and_message(self, tmp_path, args, message):
        code, _, err = run(tmp_path, args)
        assert code == 3
        lines = err.splitlines()
        assert lines[0].startswith("usage: cxsect") and "Traceback" not in err
        assert lines[-1].startswith(f"error: {message}"), err

    def test_help_exits_0(self):
        assert call(["-h"])[0] == 0
        assert call(["theorem", "-h"])[0] == 0

    @pytest.mark.parametrize("which, flag, value", [
        ("corollary1", "--epsilon", "0"),
        ("corollary1", "-p", "2"),
        ("stability", "-p", "2"),
        ("separation", "--nmax", "5"),
        ("parseval", "--epsilon", "0.1"),
        ("positivity", "-L", "BODY"),
        ("positivity", "-p", "2"),
        ("positivity", "--epsilon", "0"),
        ("gamma", "-K", "BODY"),
        ("gamma", "-L", "BODY"),
        ("gamma", "-p", "2"),
        ("gamma", "--epsilon", "0"),
    ])
    def test_theorem_flag_the_check_does_not_read(self, tmp_path, which, flag, value):
        # before, the flag was dropped and the check ran (exit 0)
        args = ["theorem", "--which", which, flag, value]
        if which != "gamma":
            args += ["-K", "BODY"] + (["-L", "BODY"] if which not in ("positivity", "parseval") else [])
        code, _, err = run(tmp_path, args)
        assert code == 3
        assert err.splitlines() == [f"error: --which {which} does not read {flag}"]
        assert not (tmp_path / "reports").exists()

    def test_subprocess_usage_error(self, tmp_path):
        proc = subprocess_cli(["section", "b.json", "--grid", "x"], tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert lines[0].startswith("usage: cxsect section")
        assert lines[-1] == "error: argument --grid: invalid int value: 'x'"

    def test_subprocess_no_command_and_help(self, tmp_path):
        proc = subprocess_cli([], tmp_path)
        assert proc.returncode == 3 and "error: the following arguments are required" in proc.stderr
        proc = subprocess_cli(["-h"], tmp_path)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: cxsect")


class TestAdmittedDimensions:
    @pytest.mark.parametrize("n", [0, 1, 5, 8, -2, 10 ** 17, 1e17])
    def test_complex_dim_rejects(self, n):
        with pytest.raises(InvalidInputError, match=r"complex dimension must be one of \(2, 3, 4\)"):
            ComplexDim(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 4.0])
    def test_complex_dim_admits(self, n):
        assert ComplexDim(n).n == int(n)

    def test_default_tables_cover_exactly_the_admitted_dimensions(self):
        assert set(TABLE_KEYS) == set(_TABLES)
        cfg = RunConfig()
        for name, key in TABLE_KEYS.items():
            assert set(getattr(cfg, name)) == {key(n) for n in COMPLEX_DIMS}, name

    @pytest.mark.parametrize("n", [5, 1e17])
    @pytest.mark.parametrize("args", [
        ["validate", "BODY"], ["section", "BODY", "--grid", "2"],
        ["section", "BODY", "--grid", "2", "--method", "direct"], ["volume", "BODY"], ["ft", "BODY"],
    ], ids=["validate", "section", "section-direct", "volume", "ft"])
    def test_every_command_exit3(self, tmp_path, n, args):
        # n = 5 passed validate and the direct sections (exit 0), and n = 1e17
        # crashed validate and section with a NumPy traceback (exit 1)
        code, _, err = run(tmp_path, args, {"n": n, "kind": "euclidean"})
        assert code == 3
        assert err.splitlines() == [
            f"error: complex dimension must be one of (2, 3, 4), got {int(n)}"]

    def test_subprocess_huge_dimension(self, tmp_path):
        spec = write_json(tmp_path, "huge.json", {"n": 1e17, "kind": "euclidean"})
        proc = subprocess_cli(["section", spec, "--grid", "2"], tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: complex dimension"), proc.stderr


class TestIntegers:
    @pytest.mark.parametrize("field, value", [("seed", 7.0), ("refine_halvings", 3.0),
                                              ("mc_samples", 2e4)])
    def test_integral_float_config_fields(self, tmp_path, field, value):
        # they exited 3 before, while every other integer read 2.0 as 2
        code, _, _ = run(tmp_path, ["volume", "BODY"], config={field: value})
        assert code == 0
        report = json.loads((tmp_path / "reports" / "volume_ball-n-2-r-1.json").read_text())
        assert report["config"][field] == int(value) and type(report["config"][field]) is int

    def test_integral_float_table_entry(self):
        cfg = RunConfig.from_dict({"jmax": {"4": 8.0}})
        assert cfg.jmax[4] == 8 and type(cfg.jmax[4]) is int

    @pytest.mark.parametrize("config", [{"seed": 7.5}, {"refine_halvings": True},
                                        {"jmax": {"4": 8.5}}, {"jmax": {4.5: 8}}])
    def test_non_integral_config_rejected(self, config):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            RunConfig.from_dict(config)

    def test_one_monte_carlo_floor(self, ball2):
        for make in (lambda n: RunConfig(mc_samples=n), lambda n: mc_volume(ball2, n, seed=0)):
            with pytest.raises(InvalidInputError, match=f"at least {MC_MIN_SAMPLES}"):
                make(MC_MIN_SAMPLES - 1)
            make(MC_MIN_SAMPLES)


class TestConfigTables:
    """``RunConfig.__post_init__`` completes and checks every table, from a
    file or from Python, before any command runs."""

    def test_python_partial_table_equals_the_json_one(self):
        # the Python one kept only its key, and the suite raised "no jmax
        # configured for N=6"
        cfg = RunConfig(jmax={4: 8}, moduli_res={3: 6})
        assert cfg == RunConfig.from_dict({"jmax": {"4": 8}, "moduli_res": {"3": 6}})
        assert cfg.jmax == {4: 8, 6: 12, 8: 6} and cfg.moduli_res == {2: 48, 3: 6, 4: 6}

    @pytest.mark.parametrize("tables, message", [
        ({"jmax": {6: 13}}, "no harmonic basis for N=6, j=13: supported are even j <= 22"),
        ({"jmax": {4: 26}}, "no harmonic basis for N=4, j=26: supported are even j <= 24"),
        ({"phase_res": {2: 1}}, "phase_res entries must be >= 2, got {2: 1}"),
        ({"moduli_res": {"3": 1}}, "moduli_res entries must be >= 2, got {3: 1}"),
        ({"reduced_levels": {"7": 5}}, "reduced_levels keys must be among [2, 3, 4], got [7]"),
        ({"product_levels": {8: 6}}, "product_levels keys must be among [2, 4, 6], got [8]"),
    ], ids=["jmax-odd", "jmax-over-cap", "phase-res-1", "moduli-res-1", "reduced-key-7",
            "product-key-8"])
    def test_rejected_when_built(self, tables, message):
        # each was accepted: the entry was never read, or failed mid-run
        with pytest.raises(InvalidInputError) as exc:
            RunConfig(**tables)
        assert str(exc.value) == message

    @pytest.mark.parametrize("config, args, line", [
        ({"phase_res": {"2": 1}}, ["volume", "BODY"], "error: phase_res entries must be >= 2, got {2: 1}"),
        ({"moduli_res": {"2": 1}}, ["suite"], "error: moduli_res entries must be >= 2, got {2: 1}"),
    ], ids=["volume", "suite"])
    def test_subprocess_one_error_line_before_any_criterion(self, tmp_path, config, args, line):
        # the volume exited 0 and echoed the entry, which it never read; the
        # suite passed three criteria before it exited 3
        body = write_json(tmp_path, "body.json", BALL)
        cfg = write_json(tmp_path, "config.json", config)
        proc = subprocess_cli(["--config", cfg] + [body if a == "BODY" else a for a in args],
                              tmp_path)
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.splitlines() == [line]
        assert not (tmp_path / "reports").exists()


class TestBoundsStatedOnce:
    def test_parseval_bound_read_by_cli_and_suite(self, tmp_path, monkeypatch):
        ell = write_json(tmp_path, "ell.json", {"n": 2, "kind": "ellipsoid",
                                                "params": {"semiaxes": [1, 2]}})
        lq3 = write_json(tmp_path, "lq3.json", {"n": 2, "kind": "lq", "params": {"q": 3}})
        config = write_json(tmp_path, "config.json", {"output_dir": str(tmp_path / "reports")})
        argv = ["--config", config, "theorem", "--which", "parseval", "-K", ell, "-L", lq3]
        verdicts = []
        for bound in (1e-2, 1e-12):
            monkeypatch.setattr(theorems, "PARSEVAL_BOUND", bound)
            crit = run_suite(names=["parseval"], echo=None).results[0]
            assert crit.bound == bound
            verdicts.append((call(argv)[0], crit.passed))
        assert verdicts == [(0, True), (1, False)]

    def test_parseval_exit1_comes_with_a_failed_result(self, tmp_path):
        # the report held no verdict and no bound, so exit 1 came with no
        # failed result in it
        ell = write_json(tmp_path, "ell.json", {"n": 2, "kind": "ellipsoid",
                                                "params": {"semiaxes": [1, 3]}})
        poly = write_json(tmp_path, "poly.json", {"n": 2, "kind": "lq", "params": {"q": "inf"}})
        config = write_json(tmp_path, "config.json", {"output_dir": str(tmp_path / "reports"),
                                                      "jmax": {"4": 2}, "tail_warn": 1.5})
        code, _, _ = call(["--config", config, "theorem", "--which", "parseval",
                           "-K", ell, "-L", poly])
        assert code == 1
        with open(tmp_path / "reports" / "theorem_parseval.json") as fh:
            results = json.load(fh)["results"]
        assert failed(results)
        assert results["bound"] == theorems.PARSEVAL_BOUND < results["relative_error"]


class TestUnderflow:
    """A body so small that a positive integral of its radial powers falls
    below the smallest normal double is a precision failure (exit 2), as one
    whose integrals overflow is.  Before, these runs divided by zero (a
    traceback, exit 1) or read subnormal noise as a failed check (exit 1)."""

    @pytest.mark.parametrize("n, radius, args, message", [
        (2, 1e-100, ["volume", "BODY", "--mc", "10000"], "the volume of ball(n=2,r=1e-100) underflows"),
        (2, 1e-100, ["theorem", "--which", "stability", "-K", "BODY", "-L", "BODY"],
         "the volume of ball(n=2,r=1e-100) underflows"),
        (3, 1e-80, ["theorem", "--which", "separation", "-K", "BODY", "-L", "BODY"],
         "non-finite or underflowing section integrand or integral for ball(n=3,r=1e-80)"),
        (3, 1e-100, ["section", "BODY", "--grid", "2", "--method", "direct"],
         "non-finite or underflowing section integrand or integral for ball(n=3,r=1e-100)"),
        (2, 1e-80, ["theorem", "--which", "parseval", "-K", "BODY"],
         "the pairing of ball(n=2,r=1e-80) and ball(n=2,r=1e-80) underflows"),
        (2, 1e-160, ["theorem", "--which", "positivity", "-K", "BODY"],
         "non-finite expansion integrand or L2 norm, or an integrand that underflows"),
        (2, 1e-300, ["section", "BODY", "--grid", "2"],
         "non-finite expansion integrand or L2 norm, or an integrand that underflows"),
    ], ids=["volume-mc", "stability", "separation", "section-direct", "parseval", "positivity",
            "section"])
    def test_exit2_one_error_line(self, tmp_path, n, radius, args, message):
        spec = {"n": n, "kind": "euclidean", "params": {"radius": radius}}
        code, _, err = run(tmp_path, args, spec)
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {message}"), err

    @pytest.mark.parametrize("args", [["ft", "BODY", "--grid", "2"], ["section", "BODY", "--grid", "2"],
                                      ["theorem", "--which", "positivity", "-K", "BODY"]])
    def test_small_but_normal_values_still_pass(self, tmp_path, args):
        # rho^2 = 1e-200 is a normal double: the transform and sections hold
        code, _, err = run(tmp_path, args, {"n": 2, "kind": "euclidean", "params": {"radius": 1e-100}})
        assert code == 0 and err == ""

    def test_monte_carlo_box_underflow(self):
        with pytest.raises(NumericalEvaluationError, match="Monte Carlo volume is not finite or underflows"):
            mc_volume(EuclideanBall(ComplexDim(2), 1e-80), MC_MIN_SAMPLES, seed=0)


class TestUnreadableFiles:
    # a file that is not UTF-8 raised UnicodeDecodeError (a traceback, exit 1)
    @pytest.mark.parametrize("content", [b"\xb0\x00{", b"[" * 100_000], ids=["not-utf8", "too-deep"])
    @pytest.mark.parametrize("which", ["config", "body"])
    def test_exit3_one_error_line(self, tmp_path, content, which):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        body = write_json(tmp_path, "body.json", BALL)
        config = write_json(tmp_path, "config.json", {"output_dir": str(tmp_path / "reports")})
        argv = ["--config", str(bad) if which == "config" else config,
                "volume", str(bad) if which == "body" else body]
        code, _, err = call(argv)
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: unreadable {which}"), err


class TestReportDirectory:
    def test_unwritable_output_dir_exit3(self, tmp_path):
        # os.makedirs raised NotADirectoryError: a traceback and exit 1
        code, _, err = run(tmp_path, ["theorem", "--which", "gamma"],
                           config={"output_dir": os.devnull + "/x"})
        assert code == 3
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write the report {os.devnull}")


# --- the property ---------------------------------------------------------

# Counts are kept to sizes that can be allocated: a --samples, --grid,
# config level, refine_halvings or mc_samples of 1e11 dies in NumPy's
# allocator (MemoryError, exit 1) or runs for hours, a class this test leaves
# out.  Every count below is at most 2 * 10**4; 10**400 and 1e100 appear as
# reals only.
ODD = st.sampled_from([None, True, "x", "2", [1], {}, math.nan, math.inf, -math.inf])
REAL = st.one_of(st.floats(0.2, 3.0), st.sampled_from([0.0, -1.0, 1e100, 1e-300, 10 ** 400]), ODD)
COUNT = st.one_of(st.integers(-2, 12), st.sampled_from([2.0, 2.5]), ODD)
TERM = st.one_of(
    st.tuples(st.sampled_from([0, 2, 4, 2.0, 3, 26]), st.sampled_from([0, 1, 2, -1, 1.5, 99]),
              st.one_of(st.floats(-0.05, 0.05), ODD)),
    st.lists(st.integers(0, 2), max_size=2), ODD)
PARAMS = st.one_of(st.fixed_dictionaries({}, optional={
    "radius": REAL, "q": st.one_of(REAL, st.sampled_from(["inf", 1.0, 2.0, 6.0])), "scale": REAL,
    "semiaxes": st.one_of(st.lists(REAL, max_size=5), REAL),
    "terms": st.one_of(st.lists(TERM, max_size=2), ODD)}), ODD)
# specs that build, so that generated runs also reach the checks
GOOD = [BALL, {"n": 2.0, "kind": "euclidean", "params": {"radius": 2}},
        {"n": 2, "kind": "lq", "params": {"q": "inf"}}, {"n": 3, "kind": "lq", "params": {"q": 3}},
        {"n": 4, "kind": "lq", "params": {"q": 6}},
        {"n": 3, "kind": "ellipsoid", "params": {"semiaxes": [1, 1.5, 2]}},
        {"n": 2, "kind": "perturbed", "params": {"terms": [[2, 0, 0.05]]}},
        {"n": 2, "kind": "perturbed", "params": {"radius": 1.1, "terms": [[2, 0, 0.4]]}}]
SPEC = st.one_of(
    st.sampled_from(GOOD), st.sampled_from(GOOD), st.sampled_from(GOOD),
    st.fixed_dictionaries({
        "n": st.one_of(st.sampled_from([2, 3, 4, 2.0, 3.0, 1, 5, 1e17]), COUNT),
        "kind": st.sampled_from(["euclidean", "lq", "ellipsoid", "perturbed", "cube"]),
        "params": PARAMS}),
    ODD)
TABLE = st.one_of(st.dictionaries(st.sampled_from(["2", "3", "4", "6", "8", "x"]), COUNT,
                                  max_size=2), ODD)
FIELDS = {**dict.fromkeys(_TABLES, TABLE), "refine_halvings": COUNT,
          "seed": st.one_of(COUNT, st.just(2 ** 64)), "tol_multiplier": REAL, "tail_warn": REAL,
          "mc_samples": st.one_of(COUNT, st.sampled_from([MC_MIN_SAMPLES, 2e4])),
          "output_dir": st.one_of(st.just(os.devnull + "/x"), ODD), "bogus": COUNT}
assert set(FIELDS) == set(RunConfig.__dataclass_fields__) | {"bogus"}


@st.composite
def fuzzed_config(draw):
    names = draw(st.lists(st.sampled_from(sorted(FIELDS)), unique=True, max_size=2))
    return {name: draw(FIELDS[name]) for name in names}


CONFIG = st.one_of(st.just({}), st.just({}), st.just({}), fuzzed_config())
NUMBER = st.one_of(st.integers(-3, 20).map(str), st.floats(-3, 5).map(repr),
                   st.sampled_from(["nan", "inf", "-inf", "x", "1e400", "1e308", "1e-320", "2.0", "0"]))


def number(good):
    """A flag value: mostly one the command takes, else any number or word."""
    return st.one_of(good, good, NUMBER)


SMALL = number(st.integers(1, 6).map(str))
REAL_FLAG = number(st.floats(0.5, 3.0).map(repr))
FLAGS = {
    "validate": {"--samples": number(st.integers(1, 2000).map(str))},
    "section": {"--grid": SMALL, "--method": st.sampled_from(["direct", "fourier", "both", "x"]),
                "--xi": st.lists(REAL_FLAG, min_size=1, max_size=8).map(",".join)},
    "volume": {"--mc": st.sampled_from(["0", "5", str(MC_MIN_SAMPLES), "20000", "x"])},
    "ft": {"-p": REAL_FLAG, "--grid": SMALL},
    "theorem": {"-K": st.just("BODY"), "-L": st.sampled_from(["BODY", "missing.json"]),
                "-p": REAL_FLAG, "--nmax": number(st.integers(1, 170).map(str)),
                "--epsilon": REAL_FLAG},
    # the whole suite takes a second even at the coarse levels, more at --jmax 12
    "suite": {"--criteria": st.sampled_from(["gamma_inequality", "separation", "nope"]),
              "--jmax": st.sampled_from(["2", "4", "5", "-2", "30", "x"])},
}
WHICH = st.sampled_from(["stability", "separation", "corollary1", "parseval", "positivity",
                         "gamma"])


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    args = [command]
    if command in ("validate", "section", "volume", "ft"):
        args.append("BODY")
    if command == "suite":
        args += ["--criteria", draw(FLAGS["suite"]["--criteria"])]
    if command == "theorem":
        which = draw(WHICH)
        args += ["--which", which]
        if which != "gamma" and draw(st.sampled_from([True] * 3 + [False])):
            args += ["-K", "BODY", "-L", "BALL"][:2 if which == "positivity" else 4]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), unique=True, max_size=3)):
        args += [flag, draw(FLAGS[command][flag])]
    if draw(st.sampled_from([False] * 9 + [True])):
        args += [draw(st.sampled_from(["--bogus", "extra", "-h", "--grid"]))]
    if draw(st.sampled_from([False] * 4 + [True])):
        args = ["--seed", draw(number(st.integers(0, 2 ** 64 - 1).map(str)))] + args
    return args


def failed(obj):
    """Whether a report holds a failed result: a "passed" entry that is false."""
    if isinstance(obj, dict):
        return obj.get("passed") is False or any(failed(v) for v in obj.values())
    if isinstance(obj, list):
        return any(failed(v) for v in obj)
    return False


# tables mostly of the keys and even entries their table admits, so that
# about one configuration in nine builds (the others must raise
# InvalidInputError, nothing else)
EVEN = st.integers(1, 11).map(lambda k: 2 * k)
ENTRY = st.one_of(EVEN, EVEN, st.integers(-1, 26), st.sampled_from([2.0, 4.5, True, None, "4"]))
ANY_KEY = st.sampled_from(["0", "1", "2", "3", "4", "5", "6", "7", "8", "10", "x", "2.0"])


def json_table(name):
    own = st.dictionaries(st.sampled_from([str(TABLE_KEYS[name](n)) for n in COMPLEX_DIMS]),
                          ENTRY, max_size=3)
    return st.one_of(own, own, st.dictionaries(ANY_KEY, ENTRY, max_size=2), ODD)


TABLES = st.fixed_dictionaries({}, optional={name: json_table(name) for name in TABLE_KEYS})


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(tables=TABLES)
def test_a_built_config_is_complete_and_checked(tables):
    try:
        cfg = RunConfig.from_dict(json.loads(json.dumps(tables)))
    except InvalidInputError:
        event("rejected")  # --hypothesis-show-statistics
        return
    event("built")
    for name, key in TABLE_KEYS.items():
        got = getattr(cfg, name)
        assert set(got) == {key(n) for n in COMPLEX_DIMS}, name
        assert all(type(v) is int and v >= 1 for v in got.values()), name
        # the entries given are kept, the others are the defaults
        given = {int(k): v for k, v in tables.get(name, {}).items()}
        assert got == {**_TABLES[name], **given}, name
    assert all(cfg.moduli_res[n] >= 2 and cfg.phase_res[n] >= 2 for n in COMPLEX_DIMS)
    assert all(j % 2 == 0 and j <= DEGREE_CAPS[N] for N, j in cfg.jmax.items())


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=SPEC, config=CONFIG, args=argv())
def test_every_input_gets_a_contract_code(spec, config, args):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reports")
        config = {**COARSE, "output_dir": out, **config}
        if isinstance(config["output_dir"], str) and config["output_dir"] != os.devnull + "/x":
            config["output_dir"] = out  # never a relative directory
        cfg = write_json(tmp, "config.json", config)
        files = {"BODY": write_json(tmp, "body.json", spec),
                 "BALL": write_json(tmp, "ball.json", BALL)}
        code, _, err = call(["--config", cfg] + [files.get(a, a) for a in args])
        event(f"{args[0]} exit {code}")  # --hypothesis-show-statistics
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 1:  # a violation, and only with a failed result in the report
            reports = [f for f in os.listdir(out) if f.endswith(".json")
                       and not f.endswith(".meta.json")]
            assert len(reports) == 1
            with open(os.path.join(out, reports[0])) as fh:
                assert failed(json.load(fh)["results"])
        if code == 3:
            assert err.splitlines()[-1].startswith("error: ")
