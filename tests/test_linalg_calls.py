"""src/regforge makes no np.linalg call, and its design path takes no BLAS product.

LAPACK and BLAS kernels round differently on different CPUs, so an
np.linalg call on the design or simulation path would move the output
bits from one machine to the next. The design path's solves, its
controllability rank and its norms go through `lti.lu_factor`,
`lti.lu_solve` and `lti.ordered_dot` on Python floats instead. The pin
below is empty; a new call has to be added to it on purpose.

The design path's products (Newton-Kleinman, Faddeev-LeVerrier, Ackermann,
the prescaler, and the evaluation and product of polynomials) are sums in
index order on Python floats, so its functions take no `@`, matmul, np.dot,
np.convolve or np.correlate (NO_BLAS); the last two reach the same BLAS dot
as np.dot. The functions of
`simulate`'s path take their products with np.dot, not `@` or np.matmul:
on their small C-contiguous operands the two make the same BLAS call, and
np.dot skips matmul's gufunc dispatch.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "regforge"

# (module, enclosing function, np.linalg attribute)
PINNED = set()

# (module, function) that may take no product by `@` or matmul. sim's
# module level is listed so that a matmul bound to a name there cannot hide.
DOT_ONLY = {("sim", "<module>"), ("sim", "simulate"), ("sim", "_rk4_maps"),
            ("sim", "_propagator"), ("sim", "_step_map"), ("sim", "_extend")}

# (module, function) of the design path, which may take no product by `@`,
# matmul, dot, convolve or correlate.
NO_BLAS = {
    ("riccati", "solve_care"), ("riccati", "solve_lyapunov"), ("riccati", "care_residual"),
    ("riccati", "_initial_stabilizing_gain"), ("riccati", "_symmetric_eigenvalues"),
    ("riccati", "_closed_loop"), ("riccati", "_gain_row"),
    ("lti", "_faddeev_leverrier"), ("lti", "char_poly"), ("lti", "ss_to_tf"),
    ("lti", "from_roots"), ("lti", "lu_factor"), ("lti", "lu_solve"),
    ("lti", "__mul__"), ("lti", "__call__"),
    ("observer", "place_poles"),
    ("sim", "reference_prescaler"),
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


def _matmul_uses(source: str, module: str) -> set[tuple[str, str, str]]:
    """(module, function, kind) for each product spelling in `source`.

    The kind "matmul" is an `@`, an `@=` or the name `matmul`; "dot",
    "convolve" and "correlate" are those names, as an attribute (`np.dot`,
    a method `.dot`), a bare name or an import.
    """
    uses = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.add((module, function, "matmul"))
        for name in ("matmul", "dot", "convolve", "correlate"):
            if (isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.alias) and node.name.split(".")[-1] == name):
                uses.add((module, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return uses


def _defined(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}


def test_simulate_path_takes_no_matmul():
    source = (SRC / "sim.py").read_text(encoding="utf-8")
    assert {function for _, function in DOT_ONLY} - {"<module>"} <= _defined(source)
    matmuls = {(module, function) for module, function, kind in _matmul_uses(source, "sim")
               if kind == "matmul"}
    assert not matmuls & DOT_ONLY


def test_design_path_takes_no_blas_product():
    found = set()
    for module in sorted({module for module, _ in NO_BLAS}):
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        assert {f for m, f in NO_BLAS if m == module} <= _defined(source), module
        found |= {(m, f) for m, f, _ in _matmul_uses(source, module)}
    assert not found & NO_BLAS


def test_matmul_scan_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "from numpy import matmul\n"
        "from numpy import dot\n"
        "def f(a, b):\n"
        "    return a @ b\n"
        "def g(a, b):\n"
        "    a @= b\n"
        "def h(a, b, out):\n"
        "    np.matmul(a, b, out=out)\n"
        "def k(a, b):\n"
        "    return matmul(a, b)\n"
        "def d(a, b):\n"
        "    return np.dot(a, b)\n"
        "def e(a, b):\n"
        "    return a.dot(b)\n"
        "def g2(a, b):\n"
        "    return dot(a, b)\n"
        "def cv(a, b):\n"
        "    return np.convolve(a, b)\n"
        "def cr(a, b):\n"
        "    return np.correlate(a, b, 'full')\n"
        "def ok(a, b):\n"
        "    return a * b + np.einsum('i,i', a, b)\n"
    )
    assert _matmul_uses(source, "m") == {
        *(("m", name, "matmul") for name in ("<module>", "f", "g", "h", "k")),
        *(("m", name, "dot") for name in ("<module>", "d", "e", "g2")),
        ("m", "cv", "convolve"),
        ("m", "cr", "correlate"),
    }
