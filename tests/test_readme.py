"""Every `--flag` that README.md shows is one that `aucal` accepts: a flag
on an `aucal <command> ...` line, in a code block or in backticks, belongs
to that command, and a backticked flag in the prose to some command. A
README that still documented a deleted flag fails here."""

import re
from pathlib import Path

from conftest import flags_by_command

README = Path(__file__).resolve().parents[1] / "README.md"
FLAG = re.compile(r"--[A-Za-z][\w-]*")


def _readme_snippets() -> tuple[list[str], list[str]]:
    """README's `aucal ...` command lines (code-block lines joined across
    trailing backslashes, and backticked spans) and its other backticked
    spans that start with a flag."""
    chunks = README.read_text(encoding="utf-8").split("```")
    code = "\n".join(chunks[1::2]).replace("\\\n", " ")
    spans = re.findall(r"`([^`]+)`", "\n\n".join(chunks[0::2]))
    commands = [line.strip() for line in [*code.splitlines(), *spans]
                if line.strip().startswith("aucal ")]
    return commands, [s for s in spans if s.startswith("--")]


def test_readme_command_lines_use_their_commands_flags():
    flags = flags_by_command()
    commands, _ = _readme_snippets()
    assert len(commands) >= 8  # demo plus one line per step
    unknown = [(line.split()[1], flag) for line in commands
               for flag in FLAG.findall(line)
               if flag not in flags.get(line.split()[1], set())]
    assert unknown == []


def test_readme_prose_flags_exist():
    accepted = set().union(*flags_by_command().values())
    _, spans = _readme_snippets()
    assert spans  # the prose names flags
    unknown = sorted({flag for span in spans for flag in FLAG.findall(span)}
                     - accepted)
    assert unknown == []
