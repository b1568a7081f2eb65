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


def test_repr_sweep_finds_no_difference_and_reports_one(capsys, monkeypatch):
    repr_sweep = _load("repr_sweep")
    assert repr_sweep.main(["1000", "1", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["powers of two and ten", "seed 1", "seed 2"]
    assert all(", 0 rows differ, " in line for line in out)
    # a kernel that writes one wrong digit fails the sweep
    rows = repr_sweep.cli._csv_rows
    monkeypatch.setattr(repr_sweep.cli, "_csv_rows", lambda *a: rows(*a).replace("7", "8", 1))
    assert repr_sweep.main(["1000", "1"]) == 1
    assert ", 0 rows differ, " not in capsys.readouterr().out
