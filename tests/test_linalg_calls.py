"""src/regforge makes no np.linalg call.

LAPACK and BLAS kernels round differently on different CPUs, so an
np.linalg call on the design or simulation path would move the output
bits from one machine to the next. The design path's solves, its
controllability rank and its norms go through `lti.lu_factor`,
`lti.lu_solve` and `lti.ordered_dot` on Python floats instead. The pin
below is empty; a new call has to be added to it on purpose.

The functions of `simulate`'s path take their products with np.dot, not
`@` or np.matmul: on their small C-contiguous operands the two make the
same BLAS call, and np.dot skips matmul's gufunc dispatch.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regforge"

# (module, enclosing function, np.linalg attribute)
PINNED = set()

# (module, function) that may take no product by `@` or matmul. sim's
# module level is listed so that a matmul bound to a name there cannot hide.
DOT_ONLY = {("sim", "<module>"), ("sim", "simulate"), ("sim", "_rk4_maps")}


def _linalg_uses(source: str, module: str) -> set[tuple[str, str, str]]:
    """(module, function, name) for each `np.linalg.<name>` in `source`.

    A `linalg` reached any other way (`np.linalg` bound to a name, an
    import of numpy.linalg) is reported with the name "<other>", so an
    alias cannot hide a call.
    """
    uses = set()

    def visit(node, function, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            direct = (isinstance(node.value, ast.Name) and node.value.id == "np"
                      and isinstance(parent, ast.Attribute))
            uses.add((module, function, parent.attr if direct else "<other>"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any("linalg" in name for name in names):
                uses.add((module, function, "<other>"))
        for child in ast.iter_child_nodes(node):
            visit(child, function, node)

    visit(ast.parse(source), "<module>", None)
    return uses


def test_linalg_calls_are_pinned():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _linalg_uses(path.read_text(encoding="utf-8"), path.stem)
    assert found == PINNED


def test_scan_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy import linalg\n"
        "solve = np.linalg.solve\n"
        "def f(a, b):\n"
        "    la = np.linalg\n"
        "    return np.linalg.solve(a, b)\n"
    )
    assert _linalg_uses(source, "m") == {
        ("m", "<module>", "<other>"),
        ("m", "<module>", "solve"),
        ("m", "f", "<other>"),
        ("m", "f", "solve"),
    }


def _matmul_uses(source: str, module: str) -> set[tuple[str, str]]:
    """(module, function) for each `@`, `@=` or name `matmul` in `source`."""
    uses = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Attribute) and node.attr == "matmul"
                or isinstance(node, ast.Name) and node.id == "matmul"
                or isinstance(node, ast.alias) and node.name.split(".")[-1] == "matmul"):
            uses.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return uses


def test_simulate_path_takes_no_matmul():
    source = (SRC / "sim.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert {function for _, function in DOT_ONLY} - {"<module>"} <= defined
    assert not _matmul_uses(source, "sim") & DOT_ONLY


def test_matmul_scan_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy import matmul\n"
        "def f(a, b):\n"
        "    return a @ b\n"
        "def g(a, b):\n"
        "    a @= b\n"
        "def h(a, b, out):\n"
        "    np.matmul(a, b, out=out)\n"
        "def k(a, b):\n"
        "    return matmul(a, b)\n"
        "def ok(a, b):\n"
        "    return np.dot(a, b)\n"
    )
    assert _matmul_uses(source, "m") == {("m", name) for name in ("<module>", "f", "g", "h", "k")}
