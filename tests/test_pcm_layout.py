"""Only ``wavio`` knows how a 16-bit PCM clip is laid out and decoded.

A clip's samples are interleaved int16, and channel 0 reads as float64
through ``READ_SCALE``. Every other module reads a clip through its span
reader (``_read``) or a ``wavio`` helper. A whole-clip ``to_float`` outside
``wavio`` made ``embed_file`` quantize the whole host again, which moved
every sample above half scale by one count. The header's 32-bit limit
(``0xFFFFFFFF``) is stated in ``wavio`` alone too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ultraband"


def _layout_uses(path: Path) -> list:
    """(module, line, what) of each use of the PCM layout in ``path``'s code."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        what = None
        if isinstance(node, ast.Name) and node.id == "READ_SCALE":
            what = "READ_SCALE"
        elif isinstance(node, ast.alias) and node.name == "READ_SCALE":
            what = "import READ_SCALE"
        elif isinstance(node, ast.Attribute) and node.attr in ("READ_SCALE", "int16", "channels"):
            what = f".{node.attr}"
        elif isinstance(node, ast.Constant) and node.value == 0xFFFFFFFF:
            what = "0xFFFFFFFF"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "to_float":
                what = "to_float()"
        if what is not None:
            found.append((path.name, getattr(node, "lineno", None), what))
    return found


def test_only_wavio_decodes_pcm():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "stego.py" in modules
    found = [use for m in modules for use in _layout_uses(m)]
    assert [use for use in found if use[0] != "wavio.py"] == []
    # the scan sees each kind of use where it belongs
    assert {what for _, _, what in found} == {"READ_SCALE", ".int16", ".channels", "0xFFFFFFFF"}


def test_the_scan_sees_code_but_not_docstrings(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""to_float(clip) and np.int16 in prose."""\n'
                    "from .wavio import READ_SCALE\n"
                    "def f(clip):\n"
                    '    """clip.channels, READ_SCALE, 0xFFFFFFFF"""\n'
                    "    limit = 0xFFFFFFFF // 2, 0xFFFFFFFE\n"
                    "    return to_float(clip), clip.channels, np.int16, READ_SCALE\n")
    assert sorted(what for _, _, what in _layout_uses(path)) == [
        ".channels", ".int16", "0xFFFFFFFF", "READ_SCALE", "import READ_SCALE", "to_float()"]
