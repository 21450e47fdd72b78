"""Command-line interface: configs, manifests, exit codes, determinism."""

import json
import os
import warnings

import pytest

from cdsobolev import acceptance, build_space
from cdsobolev.cli import MAX_COUNT, critical_limit_sweep, main
from cdsobolev.errors import InvalidConfig, InvalidExponent


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_manifest(out):
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["verify-cd", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_key_exits_2_and_names_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"corpus_sizes": 5})
    code = main(["verify-cd", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "corpus_sizes" in capsys.readouterr().err


@pytest.mark.parametrize("command, doc", [
    ("minimize", {"space": {"resolution": 64}, "max_iter": 0}),
    ("critical-limit", {"space": {"resolution": 64}, "q_list": []}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "A_range": {"lo": 0.05, "hi": 2.1, "count": 0}}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "init": {"kind": "bogus"}}),
    ("flow-fd", {"space": {"kind": "bogus"}}),
    ("flow-fast-diffusion", {"space": {"resolution": 64}}),
    ("entropy-inequality", {"space": {"resolution": 64}}),
    ("extremal-sweep", {"space": {"resolution": 64}}),
    ("full-suite", {"space": {"resolution": 64}}),
    ("minimize", {"space": {"resolution": 64}, "A": "x"}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "A_range": {"count": -1}}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "A_range": {"lo": 1, "hi": 2, "count": -1}}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "A_range": {"lo": 1, "hi": 2, "count": "three"}}),
    ("minimize", {"space": {"resolution": 1e20}}),   # rejected unallocated
    ("minimize", {"A": 1e300}),                      # A outside [A_MIN, A_MAX]
    ("rigidity-scan", {"A_list": [1e-300]}),
    # the circle is no model space: an unknown kind
    ("rigidity-scan", {"space": {"kind": "circle", "d": 1, "n": 3.0,
                                 "resolution": 64}}),
    ("critical-limit", {"space": {"kind": "circle", "d": 1, "n": 3.0,
                                  "resolution": 64}}),
    ("sobolev-deficit", {"space": {"kind": "circle", "d": 1, "n": 3.0,
                                   "resolution": 64},
                         "v": {"kind": "trig_poly"}}),
    # fixed experiments: no grid to set, or one outside the bounds
    ("flow-fd --resolution 64", {}),
    ("extremal-sweep --resolution 64", {}),
    ("full-suite --resolution 64", {}),
    ("flow-fast-diffusion --resolution 0", {}),
    ("entropy-inequality --resolution 0", {}),
    ("rigidity-scan", {"q": 2.0, "A_list": [1.0],
                       "space": {"resolution": 64}}),  # A* needs q > 2
    ("critical-limit", {"q_list": [5.0, 5.0],
                        "space": {"resolution": 64}}),  # repeated q
    # counts above MAX_COUNT, rejected before numpy allocates them
    ("rigidity-scan", {"A_range": {"count": 10000000000000}}),
    ("rigidity-scan", {"space": {"resolution": 64},
                       "A_range": {"count": MAX_COUNT + 1}}),
    ("verify-cd", {"corpus_size": 10000000000000}),
    ("verify-cd", {"corpus_size": MAX_COUNT + 1}),
    ("rigidity-scan", {"f": {"kind": "constant"}}),  # the f family is gone
    ("minimize", {"space": {"kind": "circle", "d": 1, "n": 3.0,
                            "resolution": 64}}),  # an unknown kind
    # measures that underflow: everywhere, or at the two pole cells
    ("verify-cd", {"space": {"kind": "jacobi", "d": 2, "n": 1e6,
                             "resolution": 16}}),
    ("minimize", {"space": {"kind": "jacobi", "d": 2, "n": 120,
                            "resolution": 2048}, "q": 2.02}),
    ("critical-limit", {"space": {"kind": "jacobi", "d": 2, "n": 120,
                                  "resolution": 2048}, "q_list": [2.02]}),
    # a start whose L^q moment overflows: the projection has no q-th root
    ("minimize", {"init": {"amplitude": 1e200}}),
    ("rigidity-scan", {"init": {"amplitude": 1e200}}),
    # beta <= 1, so a tol of 1 or more would pass at iteration 0
    ("minimize", {"space": {"resolution": 64}, "tol": 1e300}),
])
def test_bad_config_exits_2_without_traceback(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a process prints them on stderr
        assert main([*command.split(), "--config", cfg,
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err
    assert os.listdir(out) == []               # rejected before any artifact


def test_subnormal_weights_still_minimize(tmp_path):
    # the pole weights of n = 101 at N = 2048 are subnormal, not 0
    cfg = write_config(tmp_path, {"space": {"kind": "jacobi", "d": 2,
                                            "n": 101, "resolution": 2048},
                                  "q": 2.02})
    assert main(["minimize", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0


# how the detail of each command's first check ends: with the failed gates
UNCONVERGED_DETAIL_END = {
    "critical-limit": "; unconverged at q=5.999999; no extrapolation (one q)",
    "rigidity-scan": "(tol 1e-8); unconverged at A=1.05"}


@pytest.mark.parametrize("command, doc, table", [
    # the minimization at A*(d'(q)) for q next to 2* = 6 does not converge
    ("critical-limit", {"q_list": [5.999999], "space": {"resolution": 2048}},
     "critical_limit.csv"),
    ("rigidity-scan", {"space": {"resolution": 64}, "A_list": [1.05],
                       "max_iter": 1}, "rigidity_scan.csv"),
])
def test_unconverged_minimizer_exits_1_with_manifest(tmp_path, capsys,
                                                     command, doc, table):
    out = tmp_path / "o"
    out.mkdir()
    (out / "manifest.json").write_text('{"status": "pass"}',
                                       encoding="utf-8")  # a stale one
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    manifest = read_manifest(str(out))
    assert manifest["status"] == "fail"
    assert manifest["checks"][0]["detail"].endswith(
        UNCONVERGED_DETAIL_END[command])
    lines = (out / table).read_text(encoding="utf-8").strip().split("\n")
    assert lines[0].split(",")[-1] == "converged"
    assert [line.split(",")[-1] for line in lines[1:]] == ["false"]


def test_sobolev_deficit_extremal_example(tmp_path):
    cfg = write_config(tmp_path, {
        "space": {"kind": "sphere_radial", "d": 3, "resolution": 1024},
        "q": 6.0, "v": {"kind": "extremal", "beta": 2.0}})
    out = str(tmp_path / "out")
    assert main(["sobolev-deficit", "--config", cfg, "--out", out]) == 0
    man = read_manifest(out)
    assert man["status"] == "pass"
    names = {c["name"]: c for c in man["checks"]}
    assert names["extremal_saturates"]["measured"] <= 1e-3
    with open(os.path.join(out, "sobolev_deficit.json"),
              encoding="utf-8") as fh:
        rep = json.load(fh)
    assert list(rep) == ["q", "n", "rho", "lq_norm_sq", "l2_norm_sq",
                         "grad_norm_sq", "lhs", "rhs", "deficit",
                         "deficit_rel"]
    assert abs(rep["deficit_rel"]) <= 1e-3


def test_verify_cd_jacobi_corpus(tmp_path):
    cfg = write_config(tmp_path, {
        "space": {"kind": "jacobi", "d": 2, "n": 4.5, "resolution": 512},
        "corpus_size": 50, "seed": 7})
    out = str(tmp_path / "out")
    assert main(["verify-cd", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "cd_margins.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 51                        # header + 50 margins
    assert all(float(line.split(",")[1]) >= -5e-3 for line in lines[1:])
    with open(os.path.join(out, "cd_summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    assert list(summary) == ["cd_margin_min", "rho", "n", "corpus_size",
                             "min_margin_over_corpus"]
    assert summary["corpus_size"] == 50 and summary["n"] == 4.5


@pytest.mark.parametrize("command", ["bochner", "sobolev-deficit"])
def test_bochner_and_extremal_run_on_jacobi(tmp_path, command):
    # the Bochner bracket and the extremal family hold at real n, so both
    # commands pass on the jacobi model as on the sphere
    cfg = write_config(tmp_path, {
        "space": {"kind": "jacobi", "d": 2, "n": 4.5}})
    out = str(tmp_path / "out")
    assert main([command, "--config", cfg, "--out", out]) == 0
    checks = read_manifest(out)["checks"]
    assert len(checks) == 2 and all(c["passed"] for c in checks)


def test_minimize_command(tmp_path):
    cfg = write_config(tmp_path, {
        "space": {"resolution": 128}, "A": 2.1, "q": 5.0})
    out = str(tmp_path / "out")
    assert main(["minimize", "--config", cfg, "--out", out]) == 0
    man = read_manifest(out)
    assert man["status"] == "pass"
    assert os.path.exists(os.path.join(out, "minimizer.csv"))
    with open(os.path.join(out, "minimizer.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    assert list(rep) == ["A", "q", "d_prime", "lambda", "c", "i_value",
                         "el_residual_norm", "constancy", "iterations",
                         "converged", "backward_error", "newton_steps",
                         "backtracks"]
    assert rep["backward_error"] <= 1e-13 and rep["newton_steps"] >= 1
    assert isinstance(rep["backtracks"], int) and rep["backtracks"] >= 0


def test_rigidity_scan_command(tmp_path):
    cfg = write_config(tmp_path, {
        "space": {"resolution": 1024},
        "A_list": [0.05, 1.05, 2.1], "q": 5.0})
    out = str(tmp_path / "out")
    assert main(["rigidity-scan", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "rigidity_scan.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["A", "A_over_Astar", "q", "d_prime", "i_value",
                      "constancy", "el_residual", "identity_residual",
                      "term1", "term2", "converged"]


def test_rigidity_and_critical_limit_commands_write_the_suite_artifacts(
        tmp_path):
    # each artifact has one writer: the commands run the suite's checks, so
    # on the suite's scan and sweep they write the suite's bytes
    suite = tmp_path / "suite"
    suite.mkdir()
    scan = acceptance._rigidity_scan_shared()
    acceptance.check_rigidity_threshold(scan, str(suite))
    acceptance.check_integral_identity(scan, str(suite))
    acceptance.check_critical_limit(str(suite))
    out = str(tmp_path / "out")
    cfg = write_config(tmp_path, {"A_list": [e.report.A for e in scan[3]]})
    assert main(["rigidity-scan", "--config", cfg, "--out", out]) == 0
    assert main(["critical-limit", "--out", out]) == 0
    for name in ("rigidity_scan.csv", "rigidity_scan.svg",
                 "integral_identity.csv", "critical_limit.csv",
                 "critical_limit.json"):
        assert (tmp_path / "out" / name).read_bytes() \
            == (suite / name).read_bytes(), name


@pytest.mark.parametrize("a_list", [
    [1.02, 1.05],  # constant on [A_bif, A*] = [1, 1.05]: no gate below A*
    [0.05, 0.3],   # no A >= A*: the plot still shows every scan point
])
def test_rigidity_scan_gates(tmp_path, a_list):
    cfg = write_config(tmp_path, {"A_list": a_list})
    out = str(tmp_path / "out")
    assert main(["rigidity-scan", "--config", cfg, "--out", out]) == 0
    names = [c["name"] for c in read_manifest(out)["checks"]]
    assert names == ["rigidity_threshold", "integral_identity"]
    with open(os.path.join(out, "rigidity_scan.svg"), encoding="utf-8") as fh:
        svg = fh.read()
    # one polyline per term, through every scan point
    lines = [line for line in svg.splitlines() if "<polyline" in line]
    assert len(lines) == 2
    assert all(line.count(",") == len(a_list) for line in lines)


def test_resolution_flag_overrides_config(tmp_path):
    # loose tolerance: the point here is the grid size, not the margin
    cfg = write_config(tmp_path, {"space": {"resolution": 1024},
                                  "corpus_size": 3, "tolerance": 0.5})
    out = str(tmp_path / "out")
    assert main(["verify-cd", "--config", cfg, "--out", out,
                 "--resolution", "64"]) == 0
    with open(os.path.join(out, "cd_pointwise.csv"), encoding="utf-8") as fh:
        rows = fh.read().strip().split("\n")
    assert len(rows) == 65                         # header + 64 grid cells


def test_fast_diffusion_passes_at_resolution_16384(tmp_path):
    # the records are relative entropies: differences of the O(1) absolute
    # R_alpha put the dissipation residual at 1.84e-3 here
    out = str(tmp_path / "out")
    assert main(["flow-fast-diffusion", "--out", out,
                 "--resolution", "16384"]) == 0
    [check] = read_manifest(out)["checks"]
    assert check["name"] == "fast_diffusion_flow" and check["passed"]
    assert check["measured"] < 1e-3


def test_critical_limit_single_entry_warns(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"resolution": 128},
                                  "q_list": [5.0]})
    out = str(tmp_path / "out")
    assert main(["critical-limit", "--config", cfg, "--out", out]) == 0
    assert "no extrapolation" in capsys.readouterr().err
    with open(os.path.join(out, "critical_limit.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert "extrapolated_a_star" not in doc


def test_critical_limit_rejects_critical_exponent(tmp_path, capsys):
    cfg = write_config(tmp_path, {"space": {"resolution": 128},
                                  "q_list": [5.0, 6.0]})
    code = main(["critical-limit", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_critical_limit_sweep_api():
    space = build_space("sphere_radial", 3, 3.0, 128)
    with pytest.raises(InvalidExponent):
        critical_limit_sweep(space, [6.0])
    with pytest.raises(InvalidConfig):
        critical_limit_sweep(space, [5.5, 5.0])
    table, extrap, warnings = critical_limit_sweep(space, [5.0])
    assert len(table) == 1 and extrap is None and warnings


def test_io_failure_exits_3(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("file in the way", encoding="utf-8")
    cfg = write_config(tmp_path, {"space": {"resolution": 64},
                                  "corpus_size": 2})
    assert main(["verify-cd", "--config", cfg, "--out", str(blocker)]) == 3


@pytest.mark.parametrize("name", ["a\tb", "a\x01b"])
def test_control_characters_in_out_give_valid_json(tmp_path, name):
    # the output path reaches manifest.json through the echoed config
    out = str(tmp_path / name)
    assert main(["bochner", "--out", out]) == 0
    manifest = read_manifest(out)
    assert manifest["config"]["output_dir"] == out


def test_missing_lapack_exits_3_without_traceback(tmp_path, capsys,
                                                  monkeypatch):
    # numpy without its bundled OpenBLAS: the first solve finds no gtsv
    import _ctypes
    import ctypes
    from cdsobolev import model_space
    monkeypatch.setattr(model_space, "_gtsv", None)
    monkeypatch.setattr(model_space, "_lapack_library",
                        lambda: ctypes.CDLL(_ctypes.__file__))
    cfg = write_config(tmp_path, {"space": {"resolution": 64}})
    assert main(["minimize", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("I/O error: ") and err.count("\n") == 1, err
    assert "scipy_dgtsv_64_ not found in numpy's LAPACK" in err


def test_rerun_reproduces_artifacts(tmp_path, monkeypatch):
    cfg_doc = {"space": {"resolution": 256}, "corpus_size": 5, "seed": 3}
    outputs = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        cfg = write_config(base, cfg_doc)
        assert main(["verify-cd", "--config", cfg, "--out", "out"]) == 0
        blobs = {}
        for name in sorted(os.listdir(base / "out")):
            if name == "timing.json":      # wall-clock sidecar
                continue
            with open(base / "out" / name, "rb") as fh:
                blobs[name] = fh.read()
        outputs[run] = blobs
    assert outputs["a"] == outputs["b"]
    # config echoed in the manifest
    man = json.loads(outputs["a"]["manifest.json"])
    assert man["config"]["corpus_size"] == 5
    assert man["config"]["seed"] == 3
