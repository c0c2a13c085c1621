import argparse
import json
import math
import os
import warnings

import numpy as np
import pytest

from ghcs import analytic, cli, phase, photstat, states, weights


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


# --------------------------------------------------------------- exit codes

def test_validate_ok(capsys):
    code, doc, _ = run_json(capsys, "validate", "--a", "2", "--b", "3")
    assert code == 0 and doc["valid"]


def test_validate_rejects(capsys):
    code, doc, _ = run_json(capsys, "validate", "--a", "-2")
    assert code == 2 and not doc["valid"]
    assert doc["rule"] == "nonpositive-integer"


def test_validate_conjugate_pair_syntax(capsys):
    code, doc, _ = run_json(capsys, "validate", "--a", "1+2i,1-2i", "--b", "0.5")
    assert code == 0 and doc["valid"]


def test_validate_rejects_non_finite(capsys):
    code, doc, _ = run_json(capsys, "validate", "--b", "1e999")
    assert code == 2 and not doc["valid"]
    assert (doc["rule"], doc["which"], doc["index"]) == ("non-finite", "b", 0)


def test_negative_fock_signal_is_refused(capsys):
    code, _, err = run(capsys, "gh-phase", "--signal-fock", "-1")
    assert code == 2 and json.loads(err)["rule"] == "negative-fock-index"


def test_zero_points_give_empty_series(capsys):
    # 0 is a count: the grid is empty and the command succeeds
    code, doc, _ = run_json(capsys, "stats", "--absz-max", "2", "--points", "0")
    assert code == 0 and [s["points"] for s in doc["series"]] == [[], []]


def test_usage_errors(capsys):
    assert run(capsys, "figure", "99")[0] == 64
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys, "state", "--bogus")[0] == 64
    # negative counts and an --x-min past the grid's end, not numeric failures
    for argv in (("stats", "--absz-max", "2", "--points", "-1"),
                 ("weight", "--family", "CS", "--points", "-1"),
                 ("phase", "--absz", "1", "--points", "-1"),
                 ("gh-phase", "--points", "-1"),
                 ("figure", "1", "--points", "-1"),
                 ("moment-check", "--family", "CS", "--n-max", "-1"),
                 ("weight", "--family", "F10", "--a", "2", "--x-min", "2"),
                 ("weight", "--family", "CS", "--x-min", "3", "--x-max", "2")):
        assert run(capsys, *argv)[0] == 64, argv


@pytest.mark.parametrize("argv", [("stats", "--absz-max", "-2")] + [
    ("figure", str(fig), "--absz", "-2") for fig in (2, 3, 5, 6)], ids=" ".join)
def test_negative_sweep_end_is_a_usage_error(capsys, argv):
    # a sweep runs |z| from 0 to its end: a negative end emitted a |z| column
    # of 0, -1/30, ..., -2 and exited 0
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == "" and "must be >= 0" in err


def test_numeric_failure_exit(capsys):
    # |z| outside the unit disk for a disk family
    code, _, err = run(capsys, "pn", "--a", "2", "--absz", "1.5")
    assert code == 65 and "numeric failure" in err


@pytest.mark.parametrize("argv", [("state",), ("pn",), ("phase",), ("stats",),
                                  ("stats", "--b", "2"), ("stats", "--absz-max", "1e200")],
                         ids=" ".join)
def test_overflowing_absz_squared_is_a_structured_failure(capsys, argv):
    # |z|^2 past double range: a DivergenceError naming |z|, with no numpy
    # warning first (it was "(34, 'Numerical result out of range')")
    extra = () if "--absz-max" in argv else ("--absz", "1e200")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, *extra)
    assert code == 65 and out == "" and "|z| = 1e+200" in err


@pytest.mark.parametrize("end", ["-inf", "inf", "nan", "1e200"])
@pytest.mark.parametrize("command", [("stats", "--absz-max"), ("figure", "2", "--absz")],
                         ids=" ".join)
def test_non_finite_sweep_end_is_refused_before_the_grid(capsys, command, end):
    # np.linspace(0, -inf, n) warned "invalid value encountered in multiply"
    # before the exit-65 message, and figure 2 squared 1e200 with an overflow warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *command[:-1], f"{command[-1]}={end}")
    assert code == 65 and out == "" and "|z|^2 is not finite at |z| = " in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in err


def test_sweep_past_the_term_cap_names_x_and_the_cap(capsys):
    # |z| = 1e154 squares to the finite x = 1e308, but the first slice length
    # m + sqrt(2 fall m) overflowed: 'cannot convert float infinity to integer'
    code, out, err = run(capsys, "stats", "--absz-max=1e154")
    assert code == 65 and out == ""
    assert "x = 1e+308" in err and f"{states.MAX_CUTOFF}-term cap" in err
    assert "infinity" not in err


def test_gamma_ratio_past_double_range_names_the_log(capsys):
    # N(1) = Gamma(1) Gamma(1202) / Gamma(601.5)^2 of a valid negative pair
    # (eta = -1202) is past the double range: the message names its log
    code, out, err = run(capsys, "state", "--a=-600.5,-600.5", "--b", "1", "--absz", "1")
    assert code == 65 and out == ""
    assert "Gamma ratio exp(828.698) exceeds double range" in err


def test_f21_weight_inside_the_circle_band(capsys):
    # x = 1 - 1e-14 lies in the weight's support [0, 1), within the circle
    # band of StateSpec: normalization takes it as given, so eta = 4 >= 0 is fine
    mpmath = pytest.importorskip("mpmath")
    code, doc, _ = run_json(capsys, "weight", "--family", "F21", "--a", "3,3", "--b", "2",
                            "--x-min", "0.5", "--x-max", "0.99999999999999", "--points", "3")
    assert code == 0
    x, w = doc["series"][0]["points"][-1]
    with mpmath.workdps(40):
        om = 1 - mpmath.mpf(x)
        ref = 2 * om**2 * mpmath.hyp2f1(1, 1, 3, om) * mpmath.hyp2f1(3, 3, 2, x)
    assert w == pytest.approx(float(ref), rel=1e-10)


def test_max_terms_env(capsys, monkeypatch):
    monkeypatch.setenv("GHCS_MAX_TERMS", "5")
    code, _, _ = run(capsys, "pn", "--b", "1", "--absz", "3")
    assert code == 65
    monkeypatch.setenv("GHCS_MAX_TERMS", "not-a-number")
    assert run(capsys, "validate", "--a", "2")[0] == 64


# ------------------------------------------------------------------ output

def test_pn_sums_to_one(capsys):
    code, doc, _ = run_json(capsys, "pn", "--b", "1", "--absz", "2")
    assert code == 0
    total = sum(p[1] for p in doc["series"][0]["points"])
    assert total == pytest.approx(1.0, abs=1e-10)
    assert doc["schema_version"] == 1
    assert doc["config"]["command"] == "pn"


def test_stats_single_point(capsys):
    code, doc, _ = run_json(capsys, "stats", "--a", "2", "--absz", "0.5")
    assert code == 0
    mean = doc["series"][0]["points"][0][1]
    assert mean == pytest.approx(2.0 * 0.25 / 0.75, rel=1e-10)


@pytest.mark.parametrize("command", ["state", "pn", "stats"])
def test_circle_state_of_a_large_b_set(capsys, command):
    # (0.5,0.5;200) at |z| = 1: N(1) = Gamma(200) Gamma(199) / Gamma(199.5)^2
    # is a log Gamma ratio; read through 1/Gamma(199.5), which underflows, it
    # was 0 and each command exited 65 with a bare "math domain error"
    mpmath = pytest.importorskip("mpmath")
    code, doc, err = run_json(capsys, command, "--a", "0.5,0.5", "--b", "200", "--absz", "1")
    assert code == 0, err
    first = doc["series"][0]["points"][0][1]
    with mpmath.workdps(40):
        n1 = float(mpmath.hyp2f1(0.5, 0.5, 200, 1))
    if command == "state":  # c_0 = 1/sqrt(N(1))
        assert 1.0 / first**2 == pytest.approx(n1, rel=1e-12, abs=0.0)
    elif command == "pn":  # P(0) = 1/N(1)
        assert 1.0 / first == pytest.approx(n1, rel=1e-12, abs=0.0)
    else:  # the mean N'(1)/N(1) = a1 a2 / (s - 1), s = b - a1 - a2 = 199
        assert first == pytest.approx(0.25 / 198.0, rel=1e-12, abs=0.0)


def test_csv_format(capsys):
    code, out, _ = run(capsys, "stats", "--a", "2", "--absz", "0.5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# ")
    header = next(l for l in lines if l.startswith("x,"))
    assert header == "x,mean,mandel_q"


def test_state_reports_certificate(capsys):
    code, doc, _ = run_json(capsys, "state", "--b", "1", "--absz", "2")
    assert code == 0 and doc["normalized"]
    assert doc["tail_bound"] <= 1e-12


def test_weight_command(capsys):
    code, doc, _ = run_json(capsys, "weight", "--family", "CS", "--points", "4")
    assert code == 0
    assert all(p[1] == 1.0 for p in doc["series"][0]["points"])


def test_moment_check_command(capsys):
    code, doc, _ = run_json(capsys, "moment-check", "--family", "F10", "--a", "3",
                            "--n-max", "5")
    assert code == 0 and doc["max_rel_error"] <= 1e-8


def test_phase_command(capsys):
    code, doc, _ = run_json(capsys, "phase", "--b", "1", "--absz", "0.75",
                            "--points", "181")
    assert code == 0
    assert doc["norm_residual"] <= 1e-8


@pytest.mark.parametrize("fam", [[], ["--b", "2"]], ids=["CS", "F01(;2)"])
def test_phase_command_at_large_absz(capsys, fam):
    code, doc, _ = run_json(capsys, "phase", *fam, "--absz", "40")
    assert code == 0 and doc["norm_residual"] <= 1e-8


def test_gh_phase_fock_signal_uniform(capsys):
    code, doc, _ = run_json(capsys, "gh-phase", "--a", "3", "--signal-fock", "2",
                            "--points", "41")
    assert code == 0
    vals = [p[1] for p in doc["series"][0]["points"]]
    assert max(abs(v - 1.0 / (2.0 * math.pi)) for v in vals) <= 1e-12


# ----------------------------------------------------------------- figures

def test_figure_3_cs_reference_identically_zero(capsys):
    code, doc, _ = run_json(capsys, "figure", "3", "--points", "13")
    assert code == 0
    cs = next(s for s in doc["series"] if s["label"] == "CS")
    assert all(p[1] == 0.0 for p in cs["points"])
    labels = [s["label"] for s in doc["series"]]
    assert labels == ["b=0.2", "b=1", "b=5", "CS"]


def test_figure_7_geometry(capsys):
    code, doc, _ = run_json(capsys, "figure", "7")
    assert code == 0
    labels = [s["label"] for s in doc["series"]]
    assert labels == ["a=1.5", "a=2", "a=4", "CS"]
    for s in doc["series"]:
        assert sum(p[1] for p in s["points"]) == pytest.approx(1.0, abs=1e-9)


def test_figure_sweep_override(capsys):
    code, doc, _ = run_json(capsys, "figure", "6", "--points", "7",
                            "--sweep", "2:4,4:2")
    assert code == 0
    labels = [s["label"] for s in doc["series"]]
    assert labels == ["a=2,b=4", "a=4,b=2", "CS"]


def test_figure_bad_sweep_is_usage_error(capsys):
    assert run(capsys, "figure", "3", "--sweep", "1,oops")[0] == 64
    assert run(capsys, "figure", "6", "--sweep", "2:4:1")[0] == 64


def test_figure_determinism(tmp_path, capsys):
    p1 = tmp_path / "fig.json"
    p2 = tmp_path / "fig2.json"
    for p in (p1, p2):
        code, _, _ = run(capsys, "figure", "8", "--points", "61", "--out", str(p))
        assert code == 0
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2 or (b1.replace(b"fig.json", b"X") == b2.replace(b"fig2.json", b"X"))


def test_figure_out_identical_config_identical_bytes(tmp_path, capsys):
    out = tmp_path / "f.json"
    run(capsys, "figure", "10", "--points", "41", "--out", str(out))
    first = out.read_bytes()
    run(capsys, "figure", "10", "--points", "41", "--out", str(out))
    assert out.read_bytes() == first


def test_all_figures_emit(tmp_path, capsys):
    for fig in range(1, 14):
        out = tmp_path / f"fig{fig}.json"
        code, _, _ = run(capsys, "figure", str(fig), "--points", "41", "--out", str(out))
        assert code == 0, f"figure {fig}"
        doc = json.loads(out.read_text())
        assert doc["figure"] == fig and len(doc["series"]) >= 2


# ------------------------------------------------------------------ verify

def test_verify_eigen(capsys):
    code, doc, _ = run_json(capsys, "verify", "eigen")
    assert code == 0 and doc["passed"]
    assert len(doc["checks"]) == 12


def test_verify_coalesce(capsys):
    code, doc, _ = run_json(capsys, "verify", "coalesce")
    assert code == 0 and doc["passed"]


def test_verify_phase_norm(capsys):
    code, doc, _ = run_json(capsys, "verify", "phase-norm")
    assert code == 0 and doc["passed"]


SUITE_CHECKS = {"moments": 11, "eigen": 12, "phase-norm": 13, "coalesce": 5, "stats": 31,
                "measure": 10, "radial": 10, "husimi": 5, "circle": 5}


def test_verify_all_green(capsys):
    # every suite, in order: the first four (41 checks) as before, then the
    # paper identities that a second pipeline checks
    code, doc, _ = run_json(capsys, "verify", "all")
    assert code == 0 and doc["passed"]
    suites = [c["name"].split()[0] for c in doc["checks"]]
    assert suites == [s for s, n in SUITE_CHECKS.items() for _ in range(n)]


@pytest.mark.parametrize("suite", ["stats", "measure", "radial", "husimi", "circle"])
def test_verify_identity_suites(capsys, suite):
    code, doc, _ = run_json(capsys, "verify", suite)
    assert code == 0 and doc["passed"] and len(doc["checks"]) == SUITE_CHECKS[suite]
    assert all(c["measured"] <= c["tolerance"] for c in doc["checks"])


MEAN_AND_MANDEL = photstat.mean_and_mandel


def _pre_ratio_mandel_q(params, x, tol=1e-12):
    """mean_and_mandel with Q formed as x (a+1)/(b+1) exp(log N_2 - log N_1)
    - mean, N_k = pFq(a+k; b+k; x): each log N carries an ulp of |z|^2."""
    mean, q = MEAN_AND_MANDEL(params, x, tol)
    if isinstance(x, float) and x > 0.0 and states.classify(params).kind is states.DomainKind.PLANE:
        up = math.prod(a + 1.0 for a in params.a) / math.prod(b + 1.0 for b in params.b)
        ln = lambda k: states.log_terms(params.shifted(k), x)[1]
        q = x * up * math.exp(ln(2) - ln(1)) - mean
    return mean, q


def _doubled_log_rho_steps(params, n):
    """rho_steps with log rho doubled: wavefunction_rows divides by rho(n), not sqrt(rho(n))."""
    f2, log_rho = states.rho_steps(params, n)
    return f2, 2.0 * log_rho


PLANTED = {  # suite: (module, name, defect)
    "stats": (photstat, "mean_and_mandel", _pre_ratio_mandel_q),
    "measure": (analytic, "rho_steps", _doubled_log_rho_steps),
    # the G table of the all-ones (PB) analyzer whatever the analyzer
    "radial": (phase, "log_rho_half", lambda params, n: np.zeros(2 * n + 1)),
    # the closed form takes the density w/N for the weight w
    "husimi": (phase, "weight", weights.weight_tilde),
    # a density for every circle family, no refusal
    "circle": (weights, "circle_weight_attempt", lambda params: 0.5 / math.pi),
}


@pytest.mark.parametrize("suite", list(PLANTED))
def test_verify_identity_suites_catch_a_planted_defect(capsys, monkeypatch, suite):
    monkeypatch.setattr(*PLANTED[suite])
    code, doc, _ = run_json(capsys, "verify", suite)
    assert code == 1 and not doc["passed"]


def test_verify_stats_catches_the_mandel_q_of_log_n_differences(capsys, monkeypatch):
    # F11 (2;3) at |z| = 240: Q from log N differences is 0.9 % off |Q|
    # against a bound of 1e-6; the moment-ratio Q matches the closed form
    monkeypatch.setattr(photstat, "mean_and_mandel", _pre_ratio_mandel_q)
    _, doc, _ = run_json(capsys, "verify", "stats")
    failed = {c["name"]: c["measured"] for c in doc["checks"] if not c["pass"]}
    assert failed["stats Q/|Q| F11 (2;3) |z|=240"] > 1e-3


@pytest.mark.parametrize("argv", [("verify", "coalesce"), ("validate", "--a", "2", "--b", "3")])
def test_verify_and_validate_out_writes_stdout_bytes(capsys, tmp_path, argv):
    _, stdout, _ = run(capsys, *argv)
    path = tmp_path / "doc.json"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    if argv[0] == "validate":
        assert text == stdout
    else:  # verify echoes its configuration, --out included, in stdout's layout
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert doc["config"].pop("out") == str(path)
        assert doc == json.loads(stdout)


@pytest.mark.parametrize("argv", [("verify", "coalesce"), ("validate", "--a", "2")])
def test_verify_and_validate_refuse_csv(capsys, tmp_path, argv):
    path = tmp_path / "doc.csv"
    code, out, err = run(capsys, *argv, "--format", "csv", "--out", str(path))
    assert code == 64 and out == "" and "JSON" in err
    assert not path.exists()


# ----------------------------------------------------------------- emitter

def test_parser_is_built_once_and_keeps_its_defaults(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, doc, _ = run_json(capsys, "figure", "2", "--points", "11")
    assert len(doc["series"][0]["points"]) == 11
    _, doc, _ = run_json(capsys, "figure", "2")
    assert len(doc["series"][0]["points"]) == 61
    _, doc, _ = run_json(capsys, "stats", "--a", "2", "--absz", "0.5")
    assert doc["config"]["a"] == "2"
    _, doc, _ = run_json(capsys, "stats", "--absz", "0.5")
    assert doc["config"]["a"] == [] and doc["series"][0]["points"][0][1] == 0.25


DEFAULT_CONFIGS = [
    ("state", "--absz", "1.5"), ("state", "--a", "1+2i,1-2i", "--b", "0.5,2,2.5", "--z", "1+1i"),
    ("pn", "--b", "2", "--absz", "2"), ("stats", "--b", "2", "--absz", "2"),
    ("stats", "--a", "2", "--b", "3", "--absz-max", "5"),
    ("stats", "--a", "2", "--absz-max", "0.9"),
    ("weight", "--family", "F01", "--b", "2"), ("moment-check", "--family", "F10", "--a", "2"),
    ("phase", "--absz", "1.2"), ("gh-phase", "--a", "2"),
] + [("figure", str(k)) for k in range(1, 14)]


@pytest.mark.parametrize("argv", DEFAULT_CONFIGS, ids=[" ".join(a) for a in DEFAULT_CONFIGS])
def test_emit_matches_json_dumps(capsys, monkeypatch, argv):
    docs = []
    json_text = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda doc: docs.append(doc) or json_text(doc))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(docs) == 1
    assert out == json.dumps(docs[0], indent=2, default=cli._json_default) + "\n"


def test_emit_nonfinite_empty_and_metadata(capsys):
    args = argparse.Namespace(command="x", format="json", z=1 + 2j, a=[1 + 2j, 1 - 2j], out=None)
    nonfinite = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300]
    series = [
        cli._series("odd", [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], nonfinite, params="(;)"),
        cli._series("same grid, signed zero", [-0.0, 1.0, 2.0, 3.0, 4.0, 5.0], nonfinite[::-1]),
        cli._series("empty", [], []),
        cli._series("one", np.arange(1), np.array([np.float64(0.1)])),
    ]
    extra = {"c": 1.5 - 2j, "arr": np.array([1.5, np.nan]), "f": np.float64(0.1),
             "i": np.int64(3), "nested": {"k": [np.float32(0.5), None, True]}}
    cli.emit(args, series, extra)
    doc = {"schema_version": cli.SCHEMA_VERSION, "config": cli._config_echo(args), **extra,
           "series": series}
    out = capsys.readouterr().out
    assert out == json.dumps(doc, indent=2, default=cli._json_default) + "\n"
    assert '"points": []' in out and "NaN" in out and "-Infinity" in out and "-0.0" in out


def test_csv_output_unchanged(capsys):
    # the CSV layout: config lines, a header, then repr(x) and each series' repr(y)
    _, doc, _ = run_json(capsys, "figure", "8", "--points", "7")
    code, out, _ = run(capsys, "figure", "8", "--points", "7", "--format", "csv")
    assert code == 0
    lines = [f"# {k}={v}" for k, v in dict(doc["config"], format="csv").items()]
    lines.append("x," + ",".join(s["label"] for s in doc["series"]))
    for i, (x, _) in enumerate(doc["series"][0]["points"]):
        lines.append(",".join([repr(x)] + [repr(s["points"][i][1]) for s in doc["series"]]))
    assert out == "\n".join(lines) + "\n"
    args = argparse.Namespace(command="x", format="csv", out=None)
    cli.emit(args, [cli._series("y", [0.0, 1.0], [math.nan, -math.inf])])
    assert capsys.readouterr().out == "# command=x\n# format=csv\nx,y\n0.0,nan\n1.0,-inf\n"
