import argparse
import json
import math
import os

import numpy as np
import pytest

from ghcs import cli


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


def test_usage_errors(capsys):
    assert run(capsys, "figure", "99")[0] == 64
    assert run(capsys, "no-such-command")[0] == 64
    assert run(capsys, "state", "--bogus")[0] == 64


def test_numeric_failure_exit(capsys):
    # |z| outside the unit disk for a disk family
    code, _, err = run(capsys, "pn", "--a", "2", "--absz", "1.5")
    assert code == 65 and "numeric failure" in err


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


def test_verify_all_green(capsys):
    code, doc, _ = run_json(capsys, "verify", "all")
    assert code == 0 and doc["passed"]
    suites = {c["name"].split()[0] for c in doc["checks"]}
    assert suites == {"moments", "eigen", "phase-norm", "coalesce"}


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
