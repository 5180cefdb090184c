"""tests/count_code_lines.py counts the lines that hold code."""

from count_code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts


def f(x):
    """A docstring."""
    # a comment line does not count
    text = """a string that is
    no docstring"""
    return (x,
            text)
'''


def test_counts_code_and_not_comments_docstrings_or_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of text, and the two of the return
    assert code_lines(str(path)) == 6
