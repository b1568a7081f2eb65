"""The repository's scripts under tools/."""

import importlib.util
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    code_lines = _load("code_lines")
    source = textwrap.dedent(
        '''\
        """Module docstring,
        on two lines."""

        # a comment
        import math  # a trailing comment counts


        class A:
            """Class docstring."""

            x = (1,
                 2)

            def f(self):
                """Function
                docstring."""
                s = """a string
                that is no docstring"""
                return s
        '''
    )
    # import, class, the two lines of x, def, the two lines of s, return
    assert code_lines.count_source(source) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count_paths([tmp_path / "pkg"]) == 9
    assert code_lines.count_paths([tmp_path / "pkg" / "b.py"]) == 1
