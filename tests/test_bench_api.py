"""The fracsphere names the benchmark harness under bench/ reaches.

bench/ is not among the test paths, so a trim of the package API would
break the benchmark without a failing test; this module fails instead.
It lists what bench/workloads.py imports and calls, and the functions
and attributes bench/spans.py wraps or reads when it traces a run.  The
other side of that trim is checked here too: the package defines no
function, class or method that its own code never names.
"""

import ast
import importlib
import pathlib

import pytest

import fracsphere

# module -> functions whose spans bench/spans.py turns into per-layer metrics
TRACED = {
    "specfun": ["gauss_jacobi", "gegenbauer_all", "_jacobi_eval"],
    "spectrum": ["derive_params", "operator_eigenvalue"],
    "field": ["zonal_basis", "synthesize", "analyze", "lq_norm", "entropy2"],
    "inequality": ["deficit", "deficit_square", "reports_csv"],
    "flow": ["rk4_step"],
    "euclid": ["eigen_residual", "thm16_deficit"],
}


def test_workload_imports_resolve():
    from fracsphere import (ZonalField, cli, deficit, deficit_square,  # noqa: F401
                            derive_params, eigen_residual, thm16_deficit)
    from fracsphere.euclid import euclid_eigenvalue, f_star, stereo_angle  # noqa: F401
    from fracsphere.flow import FlowConfig, FlowOps, fit_rate, rk4_step  # noqa: F401
    assert callable(cli.main)


@pytest.mark.parametrize("module", sorted(TRACED))
def test_traced_functions_exist(module):
    mod = importlib.import_module(f"fracsphere.{module}")
    for name in TRACED[module]:
        assert callable(getattr(mod, name)), f"{module}.{name}"


def test_flow_workload_builds_and_reads_its_config():
    from fracsphere.flow import FlowConfig, FlowOps, rk4_step
    cfg = FlowConfig(n=1, s=0.5, q=4.0, kmax=8, dt=1e-3,
                     init={"family": "one_plus_eps_y1", "eps": 0.01})
    ops = FlowOps(cfg)
    u = ops.init_values()
    assert ops.cfg.clamp_floor > 0.0 and (u > ops.cfg.clamp_floor).all()
    for method in ("rhs", "entropy", "mass"):      # wrapped or called by the harness
        assert callable(getattr(FlowOps, method))
    u = rk4_step(ops, u, cfg.dt)
    assert ops.entropy(u) >= 0.0 and ops.mass(u) > 0.0


def _unnamed_definitions(package_dir):
    """Module-level functions and classes, and their methods, whose name no
    module of the package uses as a name, an attribute or an import (the
    exports of __init__ are imports, so the documented API counts as used);
    special methods are called by Python itself and are left out."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)]
    return [where for where, name in defined
            if name not in used and not (name.startswith("__") and name.endswith("__"))]


def test_package_defines_only_what_it_uses():
    unnamed = _unnamed_definitions(pathlib.Path(fracsphere.__file__).parent)
    assert unnamed == [], f"defined but never named in the package: {unnamed}"
