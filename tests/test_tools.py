"""tools/compare_artifacts.py: same / moved / missing and the exit code;
tools/run_commands.py: every command into its own directory;
tools/resolution_sweep.py: every --resolution command at each N."""

import importlib.util
import json
from pathlib import Path

import pytest

from cdsobolev import cli

_TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_artifacts = _load("compare_artifacts")
run_commands = _load("run_commands")
resolution_sweep = _load("resolution_sweep")


def _write(root: Path, files: dict):
    for name, text in files.items():
        (root / name).write_text(text)


def test_compare_artifacts(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    _write(parent, {"a.csv": "x,1.5\n", "b.csv": "y,2.0,3e-22\n",
                    "timing.json": "{\"t\": 1}"})
    _write(change, {"a.csv": "x,1.5\n", "b.csv": "y,2.5,1e-22\n",
                    "timing.json": "{\"t\": 2}"})
    assert compare_artifacts.main([str(parent), str(change)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "same     a.csv"
    # 3e-22 -> 1e-22 is the largest change; 2.0 -> 2.5 the largest >= 1e-6
    assert out[1].startswith("moved    b.csv: max rel change 0.667; "
                             "over |x| >= 1e-06: 0.2")
    assert len(out) == 2

    (change / "c.svg").write_text("<svg/>")
    assert compare_artifacts.main([str(parent), str(change)]) == 1
    assert "missing  c.svg (only in" in capsys.readouterr().out


@pytest.mark.parametrize("old,new,note", [
    ("rho=1 ok", "rho=1 bad", "text differs outside numbers"),
    ("1,2", "1,2,3", "2 vs 3 numbers"),
])
def test_moved_report_flags_structure(old, new, note):
    assert note in compare_artifacts.moved_report(old, new)


def test_usage_error(tmp_path, capsys):
    assert compare_artifacts.main([str(tmp_path)]) == 2
    assert "usage" in capsys.readouterr().err


def test_csv_with_another_header_is_compared_by_column(tmp_path, capsys):
    # in order of appearance, dropping term3 would pair 0.0 with "true"
    # and every later number with its neighbour's
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    _write(parent, {"scan.csv": "A,term1,term3,converged\n"
                                "0.05,116.78,0.0,true\n2.1,8e-22,0.0,true\n"})
    _write(change, {"scan.csv": "A,term1,converged,rate\n"
                                "0.05,116.78000000000001,true,3\n"
                                "2.1,8e-22,true,4\n"})
    assert compare_artifacts.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "moved    scan.csv: columns dropped: term3; columns added: rate; "
        "over shared columns: max rel change 1.22e-16; over |x| >= 1e-06: "
        "1.22e-16; cells differ in: term1"]


@pytest.mark.parametrize("old,new", [
    ("y,2.0\n", "y,2.5\n"),            # a first row of numbers names nothing
    ("a,b\n1,2\n", "a,c\n1\n"),         # ragged
])
def test_csv_without_column_names_is_compared_in_order(old, new):
    assert compare_artifacts.csv_report(old, new) \
        == compare_artifacts.moved_report(old, new)


def test_csv_with_the_same_header_names_the_moved_columns():
    old = "A,i_value,el_residual,converged\n0.05,0.0895,169.77,true\n" \
          "2.1,1,3e-10,true\n"
    new = "A,i_value,el_residual,converged\n0.05,0.0896,1.4e-10,true\n" \
          "2.1,1,3e-10,true\n"
    assert compare_artifacts.csv_report(old, new) == (
        compare_artifacts.moved_report(old, new)
        + "; cells differ in: i_value, el_residual")
    # bytes that differ outside the cells (here a line ending) name none
    assert compare_artifacts.csv_report("a\n1\n", "a\r\n1\r\n").endswith(
        "; cells differ in: none")


def test_run_commands_runs_every_command_at_its_defaults(tmp_path,
                                                         monkeypatch):
    calls = []

    def recording_main(argv):
        calls.append(argv)
        return len(calls) % 4  # exit codes 1, 2, 3, 0, 1, ...

    monkeypatch.setattr(cli, "main", recording_main)
    out = tmp_path / "new" / "out"
    assert run_commands.main([str(out)]) == 0
    assert calls == [[name, "--out", str(out / name)]
                     for name in cli.COMMANDS]
    codes = json.loads((out / "exit_codes.json").read_text(encoding="utf-8"))
    assert list(codes) == list(cli.COMMANDS)
    assert list(codes.values()) == [i % 4 for i in range(1, len(calls) + 1)]


@pytest.mark.parametrize("argv", [[], ["a", "b"]])
def test_run_commands_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: pytest.fail("ran"))
    assert run_commands.main(argv) == 2
    assert "usage" in capsys.readouterr().err


def test_resolution_sweep_records_each_command_at_each_n(tmp_path):
    out = tmp_path / "sweep"
    assert resolution_sweep.main([str(out), "64"]) == 0
    sweep = json.loads((out / "resolution_sweep.json").read_text(
        encoding="utf-8"))
    assert list(sweep) == [name for name, command in cli.COMMANDS.items()
                           if command.resolution]
    for name, runs in sweep.items():
        assert list(runs) == ["64"]
        manifest = json.loads((out / name / "64" / "manifest.json").read_text(
            encoding="utf-8"))
        assert manifest["config"]["output_dir"] == str(out / name / "64")
        assert runs["64"]["exit_code"] == (manifest["status"] != "pass")
        assert runs["64"]["checks"] == {
            check["name"]: {key: check[key]
                            for key in ("passed", "measured", "tolerance")}
            for check in manifest["checks"]}
    # the runs take the given N: one CSV row per cell, after the header
    csv = (out / "minimize" / "64" / "minimizer.csv").read_text(
        encoding="utf-8")
    assert csv.count("\n") == 1 + 64


@pytest.mark.parametrize("argv", [[], ["out", "4k"], ["out", "-64"]])
def test_resolution_sweep_usage_error(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: pytest.fail("ran"))
    assert resolution_sweep.main(argv) == 2
    assert "usage" in capsys.readouterr().err
