"""Structure of the package: import graph, dependencies and import cost."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdsobolev"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _function(module, name):
    return next(node for node in _modules()[module].body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _referenced(nodes):
    """The names and attributes that ``nodes`` reference."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _relative_imports(tree, modules):
    """Package modules that ``tree`` imports through relative imports."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module is not None:
            out.add(node.module.split(".")[0])
        else:  # from . import name: a submodule, or a name of the package
            out.update(a.name if a.name in modules else "__init__"
                       for a in node.names)
    return out


def _imported_names(node):
    """Absolute names an import statement binds; [] for any other node."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{a.name}" for a in node.names]
    return []


def _imports_from(node, package):
    return any(n == package or n.startswith(package + ".")
               for n in _imported_names(node))


def _third_party_imports(tree):
    """Top-level names of the installed packages that ``tree`` imports."""
    tops = {name.split(".")[0] for node in ast.walk(tree)
            for name in _imported_names(node)}
    return tops - set(sys.stdlib_module_names)


def _owners(tree, hit):
    """The innermost enclosing function of each node of ``tree`` for which
    ``hit`` holds; None for one that runs at import (module or class body)."""
    owners = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                owners.append(owner)
            visit(child, owner)

    visit(tree, None)
    return owners


def test_relative_import_graph_is_acyclic():
    modules = _modules()
    graph = {name: _relative_imports(tree, modules)
             for name, tree in modules.items()}
    assert set().union(*graph.values()) <= set(graph)
    done, on_path = set(), []

    def visit(name):
        if name in on_path:
            cycle = on_path[on_path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name in done:
            return
        on_path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        on_path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


LIBRARY = ("model_space", "gamma_calculus", "sobolev", "variational", "flows")
FRONT_END = {"reporting", "acceptance", "cli"}


def test_library_modules_import_no_front_end():
    # the library only computes: acceptance decides what each artifact
    # contains, reporting fixes its bytes and cli dispatches commands
    modules = _modules()
    for name in LIBRARY:
        tree = modules[name]
        absolute = [node for node in ast.walk(tree)
                    if any(_imports_from(node, f"cdsobolev.{m}")
                           for m in FRONT_END)]
        assert _relative_imports(tree, modules) & FRONT_END == set(), name
        assert absolute == [], name


def test_no_module_imports_scipy():
    # the one LAPACK call goes to the OpenBLAS numpy already loads:
    # scipy.linalg took about 0.3 s and 27 MB to import for it
    users = sorted(name for name, tree in _modules().items()
                   if any(_imports_from(node, "scipy")
                          for node in ast.walk(tree)))
    assert users == []


def test_no_module_imports_scipy_sparse():
    users = sorted(name for name, tree in _modules().items()
                   if any(_imports_from(node, "scipy.sparse")
                          for node in ast.walk(tree)))
    assert users == []


def test_scipy_is_imported_only_by_the_tridiagonal_solve():
    # the tridiagonal solve, the one LAPACK caller, was the last importer
    # of scipy; it now looks dgtsv up in numpy's LAPACK on its first call,
    # so no module imports scipy and only the solve loads the library
    def calls_loader(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_load_gtsv")

    users = [(name, owner) for name, tree in _modules().items()
             for owner in _owners(tree, lambda n: _imports_from(n, "scipy"))]
    loaders = [(name, owner) for name, tree in _modules().items()
               for owner in _owners(tree, calls_loader)]
    assert users == []
    assert loaders == [("model_space", "tridiagonal_solve")]


def test_runtime_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {re.split(r"[<>=!~ ;\[]", req)[0]
                for req in project["dependencies"]}
    imported = set().union(*map(_third_party_imports, _modules().values()))
    assert declared == imported == {"numpy"}


def test_no_module_calls_the_factor_then_solve_pair():
    # one gtsv call factors and solves: a gttrf factor kept beside it would
    # be a second solve path
    def names(node):
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Name):
            return [node.id]
        return [a.name for a in getattr(node, "names", [])
                if isinstance(a, ast.alias)]

    used = sorted((name, n) for name, tree in _modules().items()
                  for node in ast.walk(tree) for n in names(node)
                  if n.split(".")[-1] in ("dgttrf", "dgttrs"))
    assert used == []


_COLD_IMPORT = """
import json, sys
import numpy as np
import cdsobolev, cdsobolev.cli
from cdsobolev import model_space

def loaded():
    return {"gtsv": model_space._gtsv is not None,
            "scipy": sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy."))}

state = {"import": loaded()}
rc = cdsobolev.cli.main(["verify-cd", "--out", sys.argv[1]])
state["verify-cd"] = loaded()
lower, diag, upper = [1.0, -2.0, 0.5], [4.0, 3.0, 5.0, 6.0], [0.5, 1.0, -1.0]
dense = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
b = np.array([1.0, 2.0, -1.0, 0.5])
x = model_space.tridiagonal_solve(lower, diag, upper, b)
state["solve"] = loaded()
err = float(np.abs(x - np.linalg.solve(dense, b)).max())
print(json.dumps({"rc": rc, "loaded": state, "err": err}))
"""


def _run_fresh(code: str, out_dir) -> dict:
    """The JSON last line that ``code`` prints in a fresh interpreter, given
    ``out_dir`` as its argument: this process has scipy loaded by the tests
    that use it as a reference."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, str(out_dir)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cold_import_leaves_lapack_unloaded(tmp_path):
    result = _run_fresh(_COLD_IMPORT, tmp_path)
    assert result["rc"] == 0
    assert result["loaded"] == {
        "import": {"gtsv": False, "scipy": []},
        "verify-cd": {"gtsv": False, "scipy": []},
        "solve": {"gtsv": True, "scipy": []}}
    assert result["err"] < 1e-14


_MINIMIZE = """
import json, sys
from cdsobolev import cli
rc = cli.main(["minimize", "--out", sys.argv[1]])
print(json.dumps({"rc": rc, "loaded": sorted(
    m for m in sys.modules
    if m.split(".")[0] in ("scipy", "hashlib", "_hashlib"))}))
"""


def test_minimize_loads_neither_scipy_nor_hashlib(tmp_path):
    # the solve binds numpy's own LAPACK, and the determinism check compares
    # bytes, not digests: a command that draws no random numbers loads
    # neither scipy nor OpenSSL
    assert _run_fresh(_MINIMIZE, tmp_path) == {"rc": 0, "loaded": []}


def test_cli_names_no_artifact_and_imports_no_writer():
    # every artifact has one writer, in acceptance: the CLI only parses
    # configs and dispatches
    modules = _modules()
    tree = modules["cli"]
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert [s for s in strings if s.endswith((".csv", ".json", ".svg"))] == []
    assert "reporting" not in _relative_imports(tree, modules)


ARTIFACT_WRITERS = {"write_csv", "write_json", "write_svg", "write_field_csv"}
# callables that write files other than through a traced writer
OTHER_WRITES = {"write", "writelines", "write_text", "write_bytes", "dump",
                "save", "savez", "savez_compressed", "savetxt", "tofile",
                "copyfile", "copy2", "copytree"}


def _opens_for_writing(call):
    """Whether an ``open(...)`` call may write: it gives a mode that is not
    a literal read-only one (no mode means "r")."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _options_fields(tree):
    """{name: fields} of the ``*Options`` classes defined in ``tree``."""
    return {node.name: {stmt.target.id for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)}
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Options")}


def test_every_options_field_is_set_by_a_front_end():
    # a library setting that no command or check sets is a configuration
    # only tests reach: make it a constant instead
    modules = _modules()
    options = {}
    for name in LIBRARY:
        options.update(_options_fields(modules[name]))
    assert options
    passed = {name: set() for name in options}
    for tree in (modules["cli"], modules["acceptance"]):
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            callee = ast.unparse(call.func).rsplit(".", 1)[-1]
            if callee in passed:
                passed[callee].update(k.arg for k in call.keywords)
    unset = {name: sorted(fields - passed[name])
             for name, fields in options.items() if fields - passed[name]}
    assert unset == {}


def test_artifacts_are_written_only_by_the_reporting_writers():
    # benchmarks/tracing.py counts reporting.writes and reporting.bytes on
    # the four writers: a file written any other way would go uncounted
    modules = _modules()
    for name in ("acceptance", "cli"):
        tree = modules[name]
        from_reporting = {a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom)
                          and node.module == "reporting" for a in node.names}
        assert from_reporting <= ARTIFACT_WRITERS, name
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            assert callee not in OTHER_WRITES, (name, ast.unparse(call))
            if callee == "open":
                assert not _opens_for_writing(call), (name, ast.unparse(call))


def test_hessian_path_stays_independent_of_gamma2():
    # the path second derivative cross-checks the Gamma_2 formula, so it
    # must not be computed from that formula
    names = _referenced([_function("flows", "hessian_second_derivative")])
    forbidden = {"_gamma_terms", "gamma2", "_hessian_quadform",
                 "renyi_hessian_quadform"}
    assert names & forbidden == set()


CENTERED = {"gamma", "apply_L", "_apply_L", "_diff1", "_with_ghosts",
            "_gamma_terms"}


def test_integrated_energies_use_the_finite_volume_form():
    # every integrated Gamma goes through the face weights of S: a centered
    # stencil here would report an energy other than the one minimized; the
    # report's L_fv is weighted_laplacian_fv, which takes the face weights
    minimize = _function("variational", "minimize_subcritical").body
    loop = max(i for i, stmt in enumerate(minimize)
               if isinstance(stmt, ast.For))
    l_fv = _function("model_space", "weighted_laplacian_fv")
    for name, nodes, form in (
            ("grad_norm_sq", [_function("sobolev", "grad_norm_sq")],
             "_dirichlet_form"),
            ("_otto_grad_norm_sq", [_function("flows", "_otto_grad_norm_sq")],
             "_dirichlet_form"),
            ("weighted_laplacian_fv", [l_fv], "faces"),
            ("minimize_subcritical report", minimize[loop + 1:],
             "weighted_laplacian_fv")):
        refs = _referenced(nodes)
        assert refs & CENTERED == set() and form in refs, name


def test_face_weights_have_one_home():
    # build_space evaluates the face weights once; S is built from them
    refs = _referenced([_function("model_space", "fv_stiffness")])
    assert "sin" not in refs and "faces" in refs


def test_library_reads_no_kind_and_no_d():
    # every formula reads the effective dimension n, so both model kinds
    # take one code path; kind and d are labels that build_space checks and
    # ModelSpace.key compares
    modules = _modules()
    for name in LIBRARY:
        owners = _owners(modules[name], lambda node: isinstance(
            node, ast.Attribute) and node.attr in {"kind", "d"})
        assert set(owners) <= {"build_space", "key"}, (name, owners)


def test_fd_flow_steps_without_evaluating():
    # fd_flow evaluates F, grad F and G once per block of steps; a call
    # added to its stepping loop would evaluate them once per step again
    body = _function("flows", "fd_flow")
    loops = [node for node in ast.walk(body) if isinstance(node, ast.For)]
    innermost = [loop for loop in loops
                 if not any(isinstance(node, ast.For) and node is not loop
                            for node in ast.walk(loop))]
    assert len(innermost) == 1
    calls = [node for stmt in innermost[0].body for node in ast.walk(stmt)
             if isinstance(node, ast.Call)]
    assert [ast.unparse(call.func) for call in calls] == ["_rk4_step"]


def test_midpoint_step_is_one_linear_solve():
    # the fast-diffusion step is linearly implicit: one tridiagonal solve,
    # no iteration; a loop here would bring back a Newton solve and its
    # tolerance
    body = _function("flows", "_midpoint_step")
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                   for node in ast.walk(body))
    callees = [ast.unparse(node.func) for node in ast.walk(body)
               if isinstance(node, ast.Call)]
    assert callees.count("tridiagonal_solve") == 1


def test_flows_have_one_time_grid_and_one_derivative_rule():
    # both flows take their steps from _time_grid, whose evenly spaced
    # records the five-point stencils need; a second grid, or a fallback
    # derivative for uneven records, would let the two drift apart again
    tree = _modules()["flows"]
    assert not any(isinstance(node, ast.Attribute)
                   and node.attr == "gradient" for node in ast.walk(tree))
    for name in ("fd_flow", "fast_diffusion_flow"):
        body = _function("flows", name)
        callees = [ast.unparse(node.func) for node in ast.walk(body)
                   if isinstance(node, ast.Call)]
        assert "_time_grid" in callees, name
        assert "math.ceil" not in callees, name


# public library functions and classes that no src/ module uses, each with
# why it stays; the set can only shrink
NO_SRC_CALLER = {
    "apply_L": "benchmarks/tracing.py binds it in SPANS, and Tracer.install "
               "raises LookupError on a missing name",
    "gamma": "benchmarks/tracing.py binds it in SPANS, and Tracer.install "
             "raises LookupError on a missing name",
    "convexity_relation_margin": "the Sobolev-deficit flow check is to "
                                 "call it (ROADMAP item 3)",
}


def _public_definitions(modules):
    """{name: top-level node} of the library's public functions and
    classes."""
    return {node.name: node for name in LIBRARY for node in modules[name].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def test_every_public_library_name_has_a_src_caller():
    # a function only tests call is library code no command or check runs;
    # re-exports in __init__ and a definition's own body do not count
    modules = _modules()
    public = _public_definitions(modules)
    used = set()
    for name, tree in modules.items():
        if name == "__init__":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                ref = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if ref in public and public[ref] is not top:
                    used.add(ref)
    assert set(public) - used == set(NO_SRC_CALLER)


def test_traced_only_names_are_bound_by_the_benchmark_tracer():
    # apply_L and gamma stay in src/ only because the tracer wraps them; the
    # exemption ends when benchmarks/tracing.py stops binding them
    tree = ast.parse((PACKAGE.parents[1] / "benchmarks" / "tracing.py")
                     .read_text(encoding="utf-8"))
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [ast.unparse(t) for t in node.targets] == ["SPANS"])
    bound = {attr for module, attr in spans.values()
             if module == "model_space"}
    traced = {name for name, why in NO_SRC_CALLER.items() if "SPANS" in why}
    assert traced == {"apply_L", "gamma"}
    assert traced <= bound


def test_no_library_module_defines_a_test_oracle():
    # tests/oracles.py holds the reference computations only tests call; a
    # copy brought back into src/ would be a second home for one formula
    oracles = ast.parse((pathlib.Path(__file__).parent / "oracles.py")
                        .read_text(encoding="utf-8"))
    names = {node.name for node in oracles.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert names == {"ibp_residual", "pressure_pde_residual",
                     "condition_215_margin", "renyi_entropy",
                     "renyi_grad_norm_sq"}
    for module, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in names, (module, node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in names, (module, node.id)
    import cdsobolev
    assert not names & set(cdsobolev.__all__)
