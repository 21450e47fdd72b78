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
    return acceptance._rigidity_scan_shared(resolution=2048)


def test_sharp_constants():
    expect(acceptance.check_sharp_constants())


def test_deficit_positivity_sphere():
    expect(acceptance.check_deficit_positivity_sphere(seed=0))


def test_extremal_saturation():
    expect(acceptance.check_extremal_saturation())


def test_cd_equality_witness():
    expect(acceptance.check_cd_equality_witness())


def test_deficit_positivity_jacobi():
    expect(acceptance.check_deficit_positivity_jacobi(seed=0))


def test_rigidity_threshold(rigidity_shared):
    expect(acceptance.check_rigidity_threshold(rigidity_shared))


def test_integral_identity(rigidity_shared):
    expect(acceptance.check_integral_identity(rigidity_shared))


def test_finite_dim_decay():
    expect(acceptance.check_finite_dim_decay(seed=0))


def test_fast_diffusion_flow():
    expect(acceptance.check_fast_diffusion_flow())


def test_hessian_formula():
    expect(acceptance.check_hessian_formula(seed=0))


def test_entropy_sobolev_equivalence():
    expect(acceptance.check_entropy_sobolev_equivalence(seed=0))


def test_critical_limit():
    expect(acceptance.check_critical_limit())


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
    expect(acceptance.check_determinism())


def test_full_suite_manifest(tmp_path):
    out = str(tmp_path / "suite")
    manifest = acceptance.run_full_suite(out, seed=0)
    assert manifest["status"] == "pass"
    assert [c["name"] for c in manifest["checks"]] == acceptance.CHECK_NAMES
    assert all(c["passed"] for c in manifest["checks"])
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == manifest
