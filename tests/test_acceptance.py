"""End-to-end acceptance checks, one test per certified property."""

import json
import os

import pytest

from cdsobolev import acceptance
from cdsobolev.cli import main


def expect(result):
    assert result.passed, (
        f"{result.name}: measured={result.measured!r} "
        f"tolerance={result.tolerance!r} detail={result.detail}")


@pytest.fixture(scope="module")
def rigidity_shared():
    return acceptance._rigidity_scan_shared()


def test_sharp_constants(tmp_path):
    expect(acceptance.check_sharp_constants(tmp_path))


def test_deficit_positivity_sphere(tmp_path):
    expect(acceptance.check_deficit_positivity_sphere(tmp_path, seed=0))


def test_extremal_saturation(tmp_path):
    expect(acceptance.check_extremal_saturation(tmp_path))


def test_cd_equality_witness(tmp_path):
    expect(acceptance.check_cd_equality_witness(tmp_path))


def test_deficit_positivity_jacobi(tmp_path):
    expect(acceptance.check_deficit_positivity_jacobi(tmp_path, seed=0))


def test_rigidity_threshold(rigidity_shared, tmp_path):
    expect(acceptance.check_rigidity_threshold(rigidity_shared, tmp_path))


def test_integral_identity(rigidity_shared, tmp_path):
    expect(acceptance.check_integral_identity(rigidity_shared, tmp_path))


def test_finite_dim_decay(tmp_path):
    expect(acceptance.check_finite_dim_decay(tmp_path, seed=0))


def test_fast_diffusion_flow(tmp_path):
    expect(acceptance.check_fast_diffusion_flow(tmp_path))
    with open(tmp_path / "fast_diffusion.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert list(doc) == [
        "T", "steps_recorded", "final_entropy", "final_grad_norm_sq",
        "final_sup_dist", "steps", "stop_reason", "alpha", "beta", "n",
        "rho", "converged", "mass_drift_per_unit_time",
        "max_relative_dissipation_residual"]


def test_short_fast_diffusion_flow_is_not_converged(tmp_path, monkeypatch):
    # a flow stopped before equilibrium fails the check and says so
    flow = acceptance.fast_diffusion_flow
    monkeypatch.setattr(acceptance, "fast_diffusion_flow",
                        lambda space, mu0, alpha, T: flow(space, mu0, alpha,
                                                          T=0.05))
    assert not acceptance.check_fast_diffusion_flow(tmp_path).passed
    with open(tmp_path / "fast_diffusion.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["T"] == 0.05 and doc["converged"] is False


def test_hessian_formula(tmp_path):
    expect(acceptance.check_hessian_formula(tmp_path, seed=0))


def test_entropy_sobolev_equivalence(tmp_path):
    result = acceptance.check_entropy_sobolev_equivalence(tmp_path, seed=0)
    expect(result)
    # the detail reports the corpus minimum of the scaled margin, not the
    # start of the running minimum: every corpus density is non-constant,
    # so every margin, and their minimum, is positive
    reported = float(result.detail.split("min scaled margin ")[1].split()[0])
    with open(os.path.join(tmp_path, "entropy_sobolev.csv"),
              encoding="utf-8") as fh:
        margins = [float(line.split(",")[2]) for line in fh.read().split()[1:]]
    assert min(margins) > 0.0 and reported > 0.0


def test_critical_limit(tmp_path):
    expect(acceptance.check_critical_limit(tmp_path))


def test_determinism(tmp_path, monkeypatch):
    # two CLI runs from different working directories must yield
    # byte-identical artifacts apart from the wall-clock sidecar
    trees = {}
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        monkeypatch.chdir(base)
        assert main(["minimize", "--out", "out", "--resolution", "128"]) == 0
        blobs = {}
        for name in sorted(os.listdir(base / "out")):
            if name == "timing.json":
                continue
            with open(base / "out" / name, "rb") as fh:
                blobs[name] = fh.read()
        trees[run] = blobs
    assert set(trees["a"]) == set(trees["b"])
    for name in trees["a"]:
        assert trees["a"][name] == trees["b"][name], name
    expect(acceptance.check_determinism(tmp_path))
    # one byte that differs between the two bundles fails the check
    bundle, runs = acceptance._mini_bundle, []

    def one_byte_off(out_dir, seed):
        bundle(out_dir, seed)
        runs.append(out_dir)
        if len(runs) == 2:
            path = os.path.join(out_dir, "fast_diffusion.csv")
            with open(path, "rb") as fh:
                data = bytearray(fh.read())
            data[-2] ^= 1                       # the last digit
            with open(path, "wb") as fh:
                fh.write(data)

    monkeypatch.setattr(acceptance, "_mini_bundle", one_byte_off)
    result = acceptance.check_determinism(tmp_path)
    assert not result.passed and result.measured == 1.0
    with open(tmp_path / "determinism.json", encoding="utf-8") as fh:
        assert json.load(fh)["match"] is False


def test_full_suite_manifest(tmp_path):
    out = str(tmp_path / "suite")
    manifest = acceptance.run_full_suite(out, seed=0)
    assert manifest["status"] == "pass"
    assert [c["name"] for c in manifest["checks"]] == acceptance.CHECK_NAMES
    assert all(c["passed"] for c in manifest["checks"])
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == manifest
