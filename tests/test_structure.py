"""Static structure of the package: import graph and sparse-matrix use."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cdsobolev"


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


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


def _imports_scipy_sparse(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.sparse" or n.startswith("scipy.sparse.")
               for n in names):
            return True
    return False


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


def test_no_module_imports_scipy_sparse():
    users = sorted(name for name, tree in _modules().items()
                   if _imports_scipy_sparse(tree))
    assert users == []


def test_hessian_path_stays_independent_of_gamma2():
    # the path second derivative cross-checks the Gamma_2 formula, so it
    # must not be computed from that formula
    tree = _modules()["flows"]
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "hessian_second_derivative")
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body)
              if isinstance(node, ast.Attribute)}
    forbidden = {"_gamma_terms", "gamma2", "_hessian_quadform",
                 "renyi_hessian_quadform"}
    assert names & forbidden == set()


def test_fd_flow_steps_without_evaluating():
    # fd_flow evaluates F, grad F and G once per block of steps; a call
    # added to its stepping loop would evaluate them once per step again
    tree = _modules()["flows"]
    body = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "fd_flow")
    loops = [node for node in ast.walk(body) if isinstance(node, ast.For)]
    innermost = [loop for loop in loops
                 if not any(isinstance(node, ast.For) and node is not loop
                            for node in ast.walk(loop))]
    assert len(innermost) == 1
    calls = [node for stmt in innermost[0].body for node in ast.walk(stmt)
             if isinstance(node, ast.Call)]
    assert [ast.unparse(call.func) for call in calls] == ["_rk4_step"]
