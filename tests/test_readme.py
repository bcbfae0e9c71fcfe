"""The examples in README.md: command lines run through the CLI, and
Python lines run in one namespace.

Every fenced block that starts with ``$ derivrex`` is a run of commands,
each followed by its stdout.  A ``...`` line stands for any run of lines.
In a ``python`` block, a line whose trailing comment is a Python literal
must evaluate to that literal.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from derivrex.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    # (command, expected stdout lines) for every command in README's blocks.
    out = []
    for block in re.findall(r"^```\n(\$ derivrex.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.splitlines()
            out.append((command, lines))
    return out


def pattern(lines):
    # A regex for stdout: each line literally, and "..." for any run of lines.
    return "".join(r"(?:.*\n)*" if line == "..." else re.escape(line) + "\n" for line in lines)


EXAMPLES = examples()


def test_readme_has_its_seven_examples():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command,lines", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, lines):
    main(shlex.split(command)[1:])
    out = capsys.readouterr().out
    assert re.fullmatch(pattern(lines), out)


def split_comment(line):
    # The code of a line and the text of its trailing comment, or None.
    for tok in tokenize.generate_tokens(io.StringIO(line).readline):
        if tok.type == tokenize.COMMENT:
            return line[: tok.start[1]], tok.string[1:].strip()
    return line, None


def test_readme_python_examples():
    namespace, checked = {}, 0
    for block in re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S):
        for line in block.splitlines():
            code, comment = split_comment(line)
            try:
                want = ast.literal_eval(comment)
            except (ValueError, SyntaxError):
                exec(code, namespace)
            else:
                assert eval(code, namespace) == want, line
                checked += 1
    assert checked == 3
