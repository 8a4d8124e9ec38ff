"""README's examples run as written: each CLI line exits as its comment says,
and the library tour executes."""

import re
import shlex
from pathlib import Path

import pytest

from schoenberg_lab import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language: str, after: str) -> str:
    """The first ```language block after the heading ``after``."""
    section = README[README.index(after):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def cli_examples():
    """(argv, exit code) of each ``schoenberg-lab`` line of the CLI block; the
    code is the line's ``# exit N`` comment, or 0 without one."""
    for line in fenced("sh", "## CLI").splitlines():
        if line.startswith("schoenberg-lab "):
            command, _, comment = line.partition("#")
            code = re.search(r"exit (\d+)", comment)
            yield shlex.split(command)[1:], int(code.group(1)) if code else 0


CLI_EXAMPLES = list(cli_examples())


def test_readme_has_the_cli_examples():
    assert len(CLI_EXAMPLES) == 8


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in CLI_EXAMPLES])
def test_cli_example(capsys, monkeypatch, tmp_path, argv, expected):
    monkeypatch.chdir(tmp_path)  # --out files land here
    code = cli.main(argv)
    capsys.readouterr()
    assert code == expected


def test_library_tour(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("python", "## Library tour"), "README.md", "exec"), {})
