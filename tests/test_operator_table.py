"""spectrum.OPERATORS is the one source of each operator's domain, error
message and eigenvalues.

On a grid of (n, s, q) that holds s < 0, s = 0, 0 < s < n and s = n:
every row raises its own message exactly where it does not admit the
parameters, and the constants command prints NaN in exactly those cells
of its gamma/delta/eps columns (the rows K, delta and R).  The flow's
delta is the "L" row bit for bit, and no module of the package but
spectrum names the private kernel.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

import fracsphere
from fracsphere import cli
from fracsphere.flow import FlowConfig, FlowOps
from fracsphere.spectrum import OPERATORS, derive_params, operator_eigenvalue

GRID = [(1, -0.5, 1.2), (1, 0.0, 1.5), (1, 0.0, 2.0), (1, 0.5, 2.0), (1, 0.5, 4.0),
        (1, 1.0, 3.0), (2, -1.0, 1.0), (2, 1.0, 4.0), (2, 2.0, 1.0), (3, -1.5, 1.2),
        (3, 0.0, 2.0), (3, 2.0, 2.5), (3, 2.0, 6.0), (3, 3.0, 8.0)]
COLUMNS = {"gamma": "K", "delta": "delta", "eps": "R"}     # constants column -> table row
KMAX = 6


def _constants_table(tmp_path, n, s, q):
    """The k-table of `constants` at one (n, s, q): column name -> values."""
    out = tmp_path / "constants.csv"
    argv = ["constants", "--n", str(n), "--s", repr(s), "--q", repr(q),
            "--kmax", str(KMAX), "--out", str(out)]
    assert cli.main(argv) == 0
    header, *rows = out.read_text().split("\n\n")[1].splitlines()
    names = header.split(",")
    return {name: [float(row.split(",")[names.index(name)]) for row in rows] for name in COLUMNS}


@pytest.mark.parametrize("n,s,q", GRID)
def test_rows_refuse_and_constants_print_nan_exactly_off_their_domain(tmp_path, n, s, q):
    ps = derive_params(n, s, q)
    for kind, op in OPERATORS.items():
        if op.admits(ps):
            assert np.isfinite(operator_eigenvalue(ps, kind, KMAX)).all(), kind
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(op.message)}$"):
                operator_eigenvalue(ps, kind, KMAX)
    for column, values in _constants_table(tmp_path, n, s, q).items():
        admitted = OPERATORS[COLUMNS[column]].admits(ps)
        assert [math.isnan(v) for v in values] == [not admitted] * (KMAX + 1), column


def test_every_row_with_a_message_refuses_somewhere_on_the_grid():
    # and a row without one admits every point, so the grid reaches each domain's edge
    for kind, op in OPERATORS.items():
        refused = [point for point in GRID if not op.admits(derive_params(*point))]
        assert bool(refused) == bool(op.message), (kind, refused)


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("q", [1.0, 2.0, 2.5])
def test_flow_delta_is_the_l_row_bit_for_bit(s, q):
    ops = FlowOps(FlowConfig(s=s, q=q, kmax=40))
    expected = operator_eigenvalue(derive_params(1, s, q), "L", ops.m - 1)
    assert ops.delta.dtype == expected.dtype and ops.delta.tobytes() == expected.tobytes()


def test_only_spectrum_names_the_kernel():
    package = pathlib.Path(fracsphere.__file__).parent
    naming = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name == "_kernel":
                naming.add(path.stem)
    assert naming == {"spectrum"}
