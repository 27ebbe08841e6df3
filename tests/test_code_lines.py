"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a comment after code


class Record:
    """A class docstring."""

    def field(self):
        """A function docstring."""
        text = """a string
that is no docstring"""
        return (
            # a comment inside an expression
            text
        )
'''


def test_blank_lines_comments_and_docstrings_are_left_out():
    # import, class, def, the two string lines, return ( , text and ).
    assert code_lines.code_lines(SAMPLE) == 8


def test_the_tool_prints_each_module_and_the_total(capsys):
    package = Path(code_lines.__file__).parents[1] / "src" / "contextprob"
    code_lines.main([str(package)])
    out = capsys.readouterr().out.splitlines()
    assert out[-1].endswith("  total") and any(line.endswith("  cli.py") for line in out)
    counts = [int(line.split()[0].replace(",", "")) for line in out]
    assert counts[-1] == sum(counts[:-1]) > 0
