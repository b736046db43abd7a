"""The signal paths make no BLAS call but the resampler's matrix product.

numpy hands ``dot``, ``inner``, ``vdot``, ``matmul`` and the ``@`` operator
to OpenBLAS, whose threaded kernels keep a pool thread spinning on the
second core after the call. That core is where ``kernels._framed``'s worker
thread runs every other block of the overlap-add filter, the segmented
spectrum and ``detect``.
A 10 s ``demodulate --phase-search`` took 130-142 ms of CPU for 67-76 ms of
wall time while its three energy sums were ``np.dot``; they are
``np.einsum`` now, numpy's own loop. The one exemption is the tap matrix
product of ``kernels._polyphase``: a 3 s 44.1 -> 48 kHz ``resample`` measured
CPU time equal to wall time, so it does not spin.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ultraband"

_BLAS_FUNCTIONS = {"dot", "inner", "vdot", "matmul", "tensordot"}

#: (module, enclosing function, call) allowed to reach BLAS.
_EXEMPT = {("kernels.py", "_polyphase", "matmul")}


def _blas_uses(path: Path) -> list:
    """(module, enclosing function, call or "@") of each BLAS product in ``path``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = None
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            name = "@"
        if name in _BLAS_FUNCTIONS or name == "@":
            found.append((path.name, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return found


def test_no_blas_product_on_the_signal_paths():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "demodulator.py" in modules
    found = [use for m in modules for use in _blas_uses(m)]
    assert [use for use in found if use not in _EXEMPT] == []
    assert set(found) == _EXEMPT  # the exemption still names a real call
