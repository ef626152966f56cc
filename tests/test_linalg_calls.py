"""The np.linalg calls that src/regforge makes, pinned by where they are.

LAPACK and BLAS kernels round differently on different CPUs, so each
np.linalg call on the design or simulation path can move the output bits
from one machine to the next. The set below is meant to shrink; a new
call has to be added here on purpose, and one that is gone has to be
taken out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regforge"

# (module, enclosing function, np.linalg attribute)
PINNED = {
    ("observer", "place_poles", "matrix_power"),
    ("observer", "place_poles", "matrix_rank"),
    ("observer", "place_poles", "solve"),
    ("riccati", "solve_lyapunov", "solve"),
    ("riccati", "solve_lyapunov", "LinAlgError"),
    ("riccati", "solve_care", "norm"),
    ("sim", "reference_prescaler", "solve"),
    ("sim", "reference_prescaler", "LinAlgError"),
    ("sim", "reference_prescaler", "norm"),
}


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
