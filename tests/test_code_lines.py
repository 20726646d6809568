import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment-only line
class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Method
        docstring."""
        text = """not a docstring:
every line counts"""
        return text
'''


def test_counts_code_lines_only():
    # import, class, size over four lines, def, both lines of text, return
    assert code_lines.code_lines(SOURCE) == 10


def test_a_body_of_only_a_docstring_counts_its_header():
    assert code_lines.code_lines('def f():\n    """Doc."""\n') == 1
    assert code_lines.code_lines("") == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"    10 {tmp_path / 'pkg' / 'a.py'}",
        f"     2 {tmp_path / 'pkg' / 'b.py'}",
        "    12 total",
    ]
