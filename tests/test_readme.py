"""The README's examples run: the library quick start and every
``opinionselect`` command of the command-line block."""

import re
import shlex
from pathlib import Path

from opinionselect.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(_block("Library quick start", "python"), "README.md", "exec"),
         {})


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True) for line in
                _block("Command line", "sh").replace("\\\n", " ").splitlines()]
    commands = [c for c in commands if c]
    assert len(commands) == 5
    for argv in commands:
        assert argv[0] == "opinionselect"
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "demo.edges").exists()
    assert (tmp_path / "result.json").exists()
