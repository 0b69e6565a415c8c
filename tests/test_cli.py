import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cxsect
from cxsect.cli import main
from cxsect.errors import exit_code


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def ball_spec(tmp_path):
    return write_spec(tmp_path, "ball.json",
                      {"n": 2, "kind": "euclidean", "params": {"radius": 1.0}})


@pytest.fixture
def out(tmp_path):
    return str(tmp_path / "reports")


def run(args, tmp_path, config_extra=None):
    cfg = {"output_dir": str(tmp_path / "reports")}
    if config_extra:
        cfg.update(config_extra)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return main(["--config", str(cfg_path)] + args)


class TestValidateCommand:
    def test_ball_passes(self, tmp_path, ball_spec):
        assert run(["validate", ball_spec], tmp_path) == 0

    def test_broken_perturbation_exit1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json",
                          {"n": 2, "kind": "perturbed",
                           "params": {"radius": 1.0, "terms": [[2, 0, 10.0]]}})
        assert run(["validate", spec], tmp_path) == 1
        assert "convexity" in capsys.readouterr().out

    def test_malformed_json_exit3(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "kind":')
        assert run(["validate", str(path)], tmp_path) == 3

    def test_unknown_kind_exit3(self, tmp_path):
        spec = write_spec(tmp_path, "odd.json", {"n": 2, "kind": "cube", "params": {}})
        assert run(["validate", spec], tmp_path) == 3


class TestSectionCommand:
    def test_both_methods_agree_for_ball(self, tmp_path, ball_spec, capsys):
        code = run(["section", ball_spec, "--xi", "1,0,0,0", "--method", "both"],
                   tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "reports").joinpath(
            "section_ball-n-2-r-1_both.json").read_text())
        row = report["results"]["directions"][0]
        assert row["direct"] == pytest.approx(math.pi, rel=1e-12)
        assert row["relative_discrepancy"] <= 1e-10

    def test_direction_normalized_on_ingestion(self, tmp_path, ball_spec):
        assert run(["section", ball_spec, "--xi", "2,0,0,0", "--method", "direct"],
                   tmp_path) == 0

    def test_ellipsoid_direct_value(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "ell.json",
                          {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": [1, 2]}})
        assert run(["section", spec, "--xi", "1,0,0,0", "--method", "direct"],
                   tmp_path) == 0
        report = json.loads((tmp_path / "reports").joinpath(
            "section_ellipsoid-1-2_direct.json").read_text())
        assert report["results"]["directions"][0]["direct"] == pytest.approx(
            4 * math.pi, rel=1e-11)

    def test_huge_direction_gives_the_unit_direction(self, tmp_path):
        # its squared length overflows; it was rejected with exit 3
        spec = write_spec(tmp_path, "lq3.json", {"n": 2, "kind": "lq", "params": {"q": 3.0}})
        rows = []
        for xi in ("1e200,0,0,0", "1,0,0,0"):
            assert run(["section", spec, "--xi", xi, "--method", "both"], tmp_path) == 0
            report = json.loads((tmp_path / "reports").joinpath(
                "section_lq-n-2-q-3-s-1_both.json").read_text())
            rows.append(report["results"]["directions"])
        assert rows[0] == rows[1]

    def test_wrong_direction_length_exit3(self, tmp_path, ball_spec):
        assert run(["section", ball_spec, "--xi", "1,0,0"], tmp_path) == 3

    def test_grid_mode_both_methods(self, tmp_path):
        spec = write_spec(tmp_path, "lq4.json",
                          {"n": 2, "kind": "lq", "params": {"q": 4.0}})
        assert run(["section", spec, "--grid", "16", "--method", "both"],
                   tmp_path) == 0
        report = json.loads((tmp_path / "reports").joinpath(
            "section_lq-n-2-q-4-s-1_both.json").read_text())
        rows = report["results"]["directions"]
        assert len(rows) == 16
        assert max(r["relative_discrepancy"] for r in rows) <= 5e-3


    @pytest.mark.parametrize("grid", [1, 64])
    def test_one_batch_per_route(self, tmp_path, monkeypatch, grid):
        # whatever the grid size: the direct route's two section kernel
        # calls (value and refinement estimate), one transform evaluation and
        # one tail evaluation
        calls = []

        def counted(holder, name):
            real = getattr(holder, name)
            monkeypatch.setattr(holder, name,
                                lambda *a, **k: calls.append(name) or real(*a, **k))

        counted(cxsect.sections, "_section_sums")
        counted(cxsect.HarmonicExpansion, "evaluate")
        counted(cxsect.HarmonicExpansion, "tail_values")
        spec = write_spec(tmp_path, "ell.json",
                          {"n": 2, "kind": "ellipsoid", "params": {"semiaxes": [1, 2]}})
        assert run(["section", spec, "--grid", str(grid), "--method", "both"], tmp_path) == 0
        assert sorted(calls) == ["_section_sums", "_section_sums", "evaluate", "tail_values"]
        report = json.loads((tmp_path / "reports").joinpath(
            "section_ellipsoid-1-2_both.json").read_text())
        assert len(report["results"]["directions"]) == grid

    def test_negative_fourier_value_warns_exit2(self, tmp_path, ball_spec, monkeypatch):
        # a transform at p = 2n - 2 whose constant term is negative and whose
        # top two degrees are small: every value lies below minus its tail
        coeffs = {j: np.zeros(len(cxsect.invariant_harmonic_basis(4, j))) for j in (0, 2, 4)}
        coeffs[0][0] = -1.0
        coeffs[4][0] = 1e-3
        fake = cxsect.HarmonicExpansion(4, 4, coeffs, 0.0, 1.0, multiplier_power=2.0)
        monkeypatch.setattr(cxsect.VerificationContext, "ft", lambda self, body, p, jmax=None: fake)
        assert run(["section", ball_spec, "--grid", "3", "--method", "both"], tmp_path) == 2
        report = json.loads((tmp_path / "reports").joinpath(
            "section_ball-n-2-r-1_both.json").read_text())
        rows = report["results"]["directions"]
        warnings = report["results"]["warnings"]
        assert len(warnings) == 3
        for row, msg in zip(rows, warnings):
            assert row["fourier"] < -row["fourier_error"] < 0.0
            assert msg == (f"negative section value {row['fourier']:.3e} beyond tail "
                           f"estimate {row['fourier_error']:.3e}: truncation failure")


class TestVolumeCommand:
    def test_infinite_radius_exit3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "inf.json",
                          {"n": 2, "kind": "euclidean", "params": {"radius": "inf"}})
        assert run(["volume", spec], tmp_path) == 3
        assert capsys.readouterr().err.startswith("error: radius must be finite")

    @pytest.mark.parametrize("params", [{"radius": True}, {"radius": "1.5"}],
                             ids=["bool", "string"])
    def test_non_numeric_radius_exit3(self, tmp_path, capsys, params):
        # a JSON true read as the unit ball before, with exit 0
        spec = write_spec(tmp_path, "ball.json", {"n": 2, "kind": "euclidean", "params": params})
        assert run(["volume", spec], tmp_path) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: radius must be finite and numeric, got {params['radius']!r}"]

    def test_overflowing_volume_exit2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "huge.json",
                          {"n": 2, "kind": "euclidean", "params": {"radius": 1e100}})
        assert run(["volume", spec], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite integrand")
        assert "Traceback" not in err

    def test_overflowing_monte_carlo_box_exit2(self, tmp_path):
        # the polar volume 2.07e307 is finite, the Monte Carlo box (2R)^6 is not
        spec = write_spec(tmp_path, "big.json",
                          {"n": 3, "kind": "euclidean", "params": {"radius": 1.26e51}})
        proc = run_subprocess(["volume", spec, "--mc", "10000"], tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Monte Carlo volume is not finite"), proc.stderr


def huge_ball(tmp_path, n, radius=1e100):
    return write_spec(tmp_path, f"huge{n}.json",
                      {"n": n, "kind": "euclidean", "params": {"radius": radius}})


def run_subprocess(args, tmp_path):
    """The CLI in a fresh interpreter: it sees numpy's RuntimeWarnings, which
    pytest's capture hides."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"output_dir": str(tmp_path / "reports")}))
    src = os.path.dirname(os.path.dirname(cxsect.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "cxsect.cli", "--config", str(cfg)] + args,
        capture_output=True, text=True, env=env, timeout=600,
    )


class TestOverflow:
    """A radius-1e100 ball overflows every power of the radial function."""

    def test_section_fourier_route_exit2(self, tmp_path, capsys):
        # rho^2 = 1e200 is finite at n=2, but the expansion's L2 norm is not
        assert run(["section", huge_ball(tmp_path, 2), "--grid", "2"], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite expansion integrand or L2 norm") and err.count("\n") == 1

    def test_ft_exit2(self, tmp_path, capsys):
        assert run(["ft", huge_ball(tmp_path, 3)], tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite expansion integrand or L2 norm") and err.count("\n") == 1

    @pytest.mark.parametrize("command, n", [
        (["volume"], 2),
        (["section", "--grid", "2"], 2),
        (["section", "--grid", "2"], 3),
        (["section", "--grid", "2", "--method", "direct"], 3),
        (["ft"], 3),
    ])
    def test_one_stderr_line_in_subprocess(self, tmp_path, command, n):
        proc = run_subprocess([command[0], huge_ball(tmp_path, n)] + command[1:], tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    # finite integrand values whose weighted sum overflows
    OVERFLOWING_SUMS = [
        (["volume"], 9e76),
        (["section", "--method", "direct", "--grid", "1"], 1.2e154),
    ]

    @pytest.mark.parametrize("command, radius", OVERFLOWING_SUMS)
    def test_overflowing_sum_one_stderr_line_in_subprocess(self, tmp_path, command, radius):
        args = [command[0], huge_ball(tmp_path, 2, radius)] + command[1:]
        proc = run_subprocess(args, tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite"), proc.stderr


class TestBadInput:
    """Malformed outside input exits 3 with one error line, never a traceback."""

    BODY = "<body spec path>"
    BALL = {"n": 2, "kind": "euclidean", "params": {"radius": 1.0}}
    CASES = {
        "params-list": ({**BALL, "params": [1]}, {}, ["volume", BODY]),
        "params-null": ({**BALL, "params": None}, {}, ["volume", BODY]),
        "table-not-object": (BALL, {"jmax": 5}, ["volume", BODY]),
        "table-float-entry": (BALL, {"jmax": {"4": 2.5}}, ["volume", BODY]),
        "table-key": (BALL, {"moduli_res": {"two": 4}}, ["volume", BODY]),
        "jmax-above-cap": (BALL, {"jmax": {"6": 24}}, ["volume", BODY]),
        "halvings-string": (BALL, {"refine_halvings": "3"}, ["volume", BODY]),
        "tail-warn-string": (BALL, {"tail_warn": "x"}, ["volume", BODY]),
        "tol-nan": (BALL, {"tol_multiplier": math.nan}, ["volume", BODY]),
        "samples-bool": (BALL, {"mc_samples": True}, ["volume", BODY]),
        "samples-below-mc-floor": (BALL, {"mc_samples": 5000}, ["suite"]),
        "seed-float": (BALL, {"seed": 1.5}, ["volume", BODY]),
        "seed-too-big": (BALL, {"seed": 2 ** 64}, ["volume", BODY]),
        "output-dir-number": (BALL, {"output_dir": 3}, ["volume", BODY]),
        "seed-flag-negative": (BALL, {}, ["--seed", "-1", "section", BODY, "--grid", "1"]),
        "ft-grid-zero": (BALL, {}, ["ft", BODY, "--grid", "0"]),
        "section-grid-zero": (BALL, {}, ["section", BODY, "--grid", "0"]),
        "stability-epsilon-nan": (BALL, {}, ["theorem", "--which", "stability", "-K", BODY,
                                             "-L", BODY, "--epsilon", "nan"]),
        "stability-epsilon-inf": (BALL, {}, ["theorem", "--which", "stability", "-K", BODY,
                                             "-L", BODY, "--epsilon", "inf"]),
        "separation-epsilon-nan": (BALL, {}, ["theorem", "--which", "separation", "-K", BODY,
                                              "-L", BODY, "--epsilon", "nan"]),
        # integers beyond the double range raised OverflowError, exit 1
        "radius-huge-int": ({**BALL, "params": {"radius": 10 ** 400}}, {}, ["volume", BODY]),
        "coefficient-huge-int": ({"n": 2, "kind": "perturbed",
                                  "params": {"radius": 1.0, "terms": [[2, 0, 10 ** 400]]}},
                                 {}, ["volume", BODY]),
        "tol-huge-int": (BALL, {"tol_multiplier": 10 ** 400}, ["volume", BODY]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit3_one_error_line(self, tmp_path, capsys, case):
        spec, config, args = self.CASES[case]
        path = write_spec(tmp_path, "body.json", spec)
        assert run([path if a == self.BODY else a for a in args], tmp_path, config) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines

    def test_mc_samples_below_the_floor_rejected_before_any_criterion(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cxsect.cli, "run_suite", lambda *a, **k: pytest.fail("suite ran"))
        assert run(["suite"], tmp_path, {"mc_samples": 9_999}) == 3
        assert not (tmp_path / "reports").exists()
        assert cxsect.RunConfig(mc_samples=10_000).mc_samples == 10_000  # the floor itself passes


class TestTheoremCommand:
    def test_gamma_exit0(self, tmp_path):
        assert run(["theorem", "--which", "gamma", "--nmax", "170"], tmp_path) == 0

    def test_stability_scaled_ball(self, tmp_path, ball_spec):
        big = write_spec(tmp_path, "big.json",
                         {"n": 2, "kind": "euclidean", "params": {"radius": 1.1}})
        assert run(["theorem", "--which", "stability", "-K", big, "-L", ball_spec],
                   tmp_path) == 0
        report = json.loads((tmp_path / "reports" / "theorem_stability.json").read_text())
        assert report["results"]["margin"] == pytest.approx(0.1933, abs=2e-4)

    def test_missing_second_body_exit3(self, tmp_path, ball_spec):
        assert run(["theorem", "--which", "stability", "-K", ball_spec], tmp_path) == 3

    @pytest.mark.parametrize("which", ["positivity", "parseval", "stability", "separation",
                                       "corollary1"])
    def test_missing_first_body_exit3(self, tmp_path, ball_spec, capsys, which):
        # an input error (exit 3), not a crash that reads as a violation (exit 1)
        second = ["-L", ball_spec] if which not in ("positivity", "parseval") else []
        assert run(["theorem", "--which", which] + second, tmp_path) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: --which {which} requires -K"]
        assert not (tmp_path / "reports").exists()

    def test_supplied_epsilon_flag(self, tmp_path, ball_spec):
        big = write_spec(tmp_path, "big2.json",
                         {"n": 2, "kind": "euclidean", "params": {"radius": 1.1}})
        code = run(["theorem", "--which", "stability", "-K", big, "-L", ball_spec,
                    "--epsilon", str(0.21 * math.pi)], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "reports" / "theorem_stability.json").read_text())
        assert report["results"]["epsilon_source"] == "supplied"

    def test_violated_supplied_epsilon_exit1(self, tmp_path, ball_spec):
        big = write_spec(tmp_path, "big3.json",
                         {"n": 2, "kind": "euclidean", "params": {"radius": 1.1}})
        code = run(["theorem", "--which", "stability", "-K", big, "-L", ball_spec,
                    "--epsilon", "0.0"], tmp_path)
        assert code == 1

    def test_positivity_exploratory_n4_exit0(self, tmp_path):
        spec = write_spec(tmp_path, "lq6n4.json",
                          {"n": 4, "kind": "lq", "params": {"q": 6.0}})
        assert run(["theorem", "--which", "positivity", "-K", spec], tmp_path) == 0

    def test_parseval_golden(self, tmp_path, ball_spec):
        assert run(["theorem", "--which", "parseval", "-K", ball_spec, "-p", "2"],
                   tmp_path) == 0


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path, ball_spec):
        run(["validate", ball_spec], tmp_path)
        first = (tmp_path / "reports" / "validate_ball-n-2-r-1.json").read_bytes()
        run(["validate", ball_spec], tmp_path)
        second = (tmp_path / "reports" / "validate_ball-n-2-r-1.json").read_bytes()
        assert first == second

    @pytest.mark.parametrize("args, stem", [
        (["volume", "BALL"], "volume_ball-n-2-r-1"),
        (["theorem", "--which", "gamma"], "theorem_gamma"),
        (["suite", "--criteria", "gamma_inequality", "separation"], "suite_summary"),
        (["section", "PERT", "--method", "both", "--grid", "3"],
         "section_perturbed-n-2-r-1.1-2-2-0.05_both"),
        (["ft", "PERT", "--grid", "3"], "ft_perturbed-n-2-r-1.1-2-2-0.05_p2"),
        (["theorem", "--which", "stability", "-K", "PERT", "-L", "BALL"], "theorem_stability"),
        (["theorem", "--which", "separation", "-K", "PERT", "-L", "BALL"], "theorem_separation"),
        (["theorem", "--which", "corollary1", "-K", "PERT", "-L", "BALL"], "theorem_corollary1"),
        (["theorem", "--which", "parseval", "-K", "PERT", "-L", "BALL", "-p", "2"],
         "theorem_parseval"),
        (["theorem", "--which", "positivity", "-K", "PERT"], "theorem_positivity"),
    ])
    def test_command_reports_byte_identical(self, tmp_path, ball_spec, args, stem):
        pert = write_spec(tmp_path, "pert.json",
                          {"n": 2, "kind": "perturbed",
                           "params": {"radius": 1.1, "terms": [[2, 2, 0.05]]}})
        args = [{"BALL": ball_spec, "PERT": pert}.get(a, a) for a in args]
        reports = tmp_path / "reports"
        runs = []
        for _ in range(2):
            run(args, tmp_path)
            runs.append([(reports / (stem + ext)).read_bytes() for ext in (".json", ".csv")])
        assert runs[0] == runs[1]

    def test_suite_timings_only_in_meta(self, tmp_path):
        run(["suite", "--criteria", "gamma_inequality"], tmp_path)
        meta = json.loads((tmp_path / "reports" / "suite_summary.meta.json").read_text())
        assert "wall_seconds" in meta
        assert set(meta["criterion_seconds"]) == {"gamma_inequality"}

    def test_suite_result_serialises_no_timing(self):
        from cxsect.suite import CriterionResult, SuiteResult

        gamma = CriterionResult("gamma_inequality", True, 0.69, 0.0, ">=", seconds=1.25)
        parseval = CriterionResult("parseval", True, 1e-3, 1e-2, "<=", seconds=0.5)
        result = SuiteResult([gamma, parseval], 12.5)
        blob = json.dumps(result.to_dict())
        assert "seconds" not in blob and "12.5" not in blob
        assert result.summary_rows() == [gamma.row(), parseval.row()]
        assert result.timings() == {"wall_seconds": 12.5,
                                    "criterion_seconds": {"gamma_inequality": 1.25,
                                                          "parseval": 0.5}}

    def test_config_echoed_in_report(self, tmp_path, ball_spec):
        run(["validate", ball_spec], tmp_path, config_extra={"seed": 777})
        report = json.loads((tmp_path / "reports" / "validate_ball-n-2-r-1.json").read_text())
        assert report["config"]["seed"] == 777
        assert report["schema_version"] == "1"
        assert "artifact_version" in report

    def test_timestamps_only_in_meta(self, tmp_path, ball_spec):
        run(["validate", ball_spec], tmp_path)
        body = (tmp_path / "reports" / "validate_ball-n-2-r-1.json").read_text()
        meta = json.loads((tmp_path / "reports" / "validate_ball-n-2-r-1.meta.json").read_text())
        assert "written_at" in meta
        assert "written_at" not in body

    def test_thread_provenance_in_meta(self, tmp_path, ball_spec, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run(["validate", ball_spec], tmp_path)
        meta = json.loads((tmp_path / "reports" / "validate_ball-n-2-r-1.meta.json").read_text())
        assert meta["threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert meta["threads"]["MKL_NUM_THREADS"] is None
        assert meta["numpy"] == np.__version__
        assert meta["cpu_count"] == os.cpu_count()

    def test_peak_memory_only_in_meta(self, tmp_path):
        import resource

        run(["suite", "--criteria", "gamma_inequality"], tmp_path)
        reports = tmp_path / "reports"
        meta = json.loads((reports / "suite_summary.meta.json").read_text())
        # ru_maxrss is in KB on Linux, in bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak /= 2 ** 20 if sys.platform == "darwin" else 2 ** 10
        assert 0 < meta["peak_rss_mb"] <= peak + 0.1 and "wall_seconds" in meta
        assert "peak_rss" not in (reports / "suite_summary.json").read_text()

    def test_no_peak_memory_without_resource(self, tmp_path, ball_spec, monkeypatch):
        from cxsect import reporting

        monkeypatch.setattr(reporting, "resource", None)
        run(["validate", ball_spec], tmp_path)
        meta = json.loads((tmp_path / "reports" / "validate_ball-n-2-r-1.meta.json").read_text())
        assert "peak_rss_mb" not in meta and "written_at" in meta

    def test_empty_config_equals_explicit_defaults(self, tmp_path, ball_spec):
        from cxsect.config import default_config

        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        cfg_empty = tmp_path / "empty.json"
        cfg_empty.write_text(json.dumps({"output_dir": str(out1)}))
        cfg_full = tmp_path / "full.json"
        full = default_config().to_dict()
        full["output_dir"] = str(out2)
        cfg_full.write_text(json.dumps(full))
        assert main(["--config", str(cfg_empty), "validate", ball_spec]) == 0
        assert main(["--config", str(cfg_full), "validate", ball_spec]) == 0
        a = json.loads((out1 / "validate_ball-n-2-r-1.json").read_text())
        b = json.loads((out2 / "validate_ball-n-2-r-1.json").read_text())
        a["config"].pop("output_dir")
        b["config"].pop("output_dir")
        assert a == b


class TestSuiteCommand:
    def test_degraded_truncation_escalates_exit2(self, tmp_path):
        # jmax=4 forces tail-energy warnings through the transform pipeline
        code = run(["suite", "--criteria", "section_cross_validation", "--jmax", "4"],
                   tmp_path)
        assert code == 2

    def test_unknown_criterion_exit3(self, tmp_path):
        assert run(["suite", "--criteria", "nonexistent"], tmp_path) == 3

    def test_jmax_above_a_degree_cap_exit3_before_any_block(self, tmp_path, monkeypatch, capsys):
        # 24 is N=4's cap but above N=6's: the suite would build every N
        def never(n, k):
            raise AssertionError(f"block ({k},{k}) of C^{n} built")

        monkeypatch.setattr(cxsect.harmonics, "_block", never)
        assert run(["suite", "--jmax", "24"], tmp_path) == 3
        assert capsys.readouterr().err.splitlines() == [
            "error: no harmonic basis for N=6, j=24: supported are even j <= 22"]

    def test_single_fast_criterion_exit0(self, tmp_path):
        assert run(["suite", "--criteria", "gamma_inequality"], tmp_path) == 0

    def test_largest_seed_exit0(self, tmp_path, capsys):
        # the criterion keys its generators with seed + salt, past 2**64 here
        code = run(["--seed", str(2 ** 64 - 1), "suite", "--criteria",
                    "section_cross_validation"], tmp_path)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("outcomes, code", [
    ([], 0),
    ([(True, ())], 0),
    ([(True, ("tail",))], 2),
    ([(False, ("tail",))], 2),
    ([(False, ())], 1),
    ([(True, ()), (False, ("tail",)), (False, ())], 1),
])
def test_exit_code_rule(outcomes, code):
    assert exit_code(outcomes) == code
