"""README's examples: each command line prints what README shows, and
the library example runs and computes the values in its comments."""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from tests.runner import invoke

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(section: str, language: str) -> list[str]:
    """The lines of the first ``language`` code block under ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return body.split(f"```{language}\n", 1)[1].split("```", 1)[0].splitlines()


def command_examples() -> list[tuple[str, str | None]]:
    """Each ``chemin`` line of the Command line block, with the output shown
    on the ``#   `` lines below it, or None where README shows none."""
    lines = code_block("Command line", "bash")
    examples = []
    for index, line in enumerate(lines):
        if line.startswith("chemin "):
            shown = []
            for after in lines[index + 1:]:
                if not after.startswith("#   "):
                    break
                shown.append(after.removeprefix("#   ") + "\n")
            examples.append((line, "".join(shown) or None))
    return examples


EXAMPLES = command_examples()


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line.partition("#")[0].strip() for line, _ in EXAMPLES])
def test_command_line_example(line, shown):
    result = invoke(shlex.split(line, comments=True)[1:])
    assert result.exit_code == 0, result.stderr
    if shown is not None:
        assert result.stdout == shown


def test_command_line_block_shows_outputs():
    assert sum(shown is not None for _, shown in EXAMPLES) == 3


def test_library_example():
    lines = code_block("Library", "python")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    # A commented expression line shows its value: a Fraction by its
    # repr, a tuple of them as (p/q, ...).
    checked = []
    for line in lines:
        code, _, comment = line.partition("#")
        if not comment:
            continue
        try:
            value = eval(code, namespace)
        except SyntaxError:
            continue  # a statement, such as an assignment
        shown = "(" + ", ".join(map(str, value)) + ")" if isinstance(value, tuple) else repr(value)
        checked.append((shown, comment.strip()))
    assert checked == [("Fraction(175, 23153)",) * 2, ("(541/2592, 2051/2592)",) * 2]
