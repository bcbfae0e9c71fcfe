"""The command-line examples in README.md, run through the CLI.

Every fenced block that starts with ``$ derivrex`` is a run of commands,
each followed by its stdout.  A ``...`` line stands for any run of lines.
"""

import re
import shlex
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
