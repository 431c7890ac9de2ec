"""The README's "Library use" block runs as written.

Each expression statement whose comment opens with a value, on its own
line or on the line below it, must evaluate to that value: the comment
starts with the value's repr, followed by nothing, a colon or a comma.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def commented_values(source: str) -> dict:
    """First line of an expression statement -> the text of its comment, '#'
    and spaces stripped: the comment ending its line, else a comment line
    right below."""
    lines, out = source.splitlines(), {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            own = lines[node.end_lineno - 1][node.end_col_offset:].strip()
            below = lines[node.end_lineno].strip() if node.end_lineno < len(lines) else ""
            comment = own or (below if below.startswith("#") else "")
            if comment:
                out[node.lineno] = comment.lstrip("# ")
    return out


def test_the_scan_reads_a_value_from_the_comment_on_or_below_its_line():
    source = "x = 1\nx + 1  # 2: two\nx\n#   1\n\nx - 1\n\n# apart\ny = x  # 1\n"
    assert list(commented_values(source).values()) == ["2: two", "1"]


def test_the_library_use_block_evaluates_to_its_comments():
    source = library_block()
    comments, namespace, shown = commented_values(source), {}, []
    for node in ast.parse(source).body:
        if node.lineno not in comments:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        comment = comments[node.lineno]
        assert comment.startswith(value) and comment[len(value):][:1] in ("", ":", ","), \
            (ast.unparse(node), value, comment)
        shown.append(value)
    assert shown == ["'proven'", "5", "1*d0", "{0: 1*d0, 1: 1*d2, 2: 1*d1}", "'proven'",
                     "1*(d2,d1)", "3", "1*d0 + 1*d1 + 1*d2"]
