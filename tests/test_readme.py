"""The README's library quick start and CLI block run as documented."""

import re
import shlex
from pathlib import Path

from skewspec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quick start", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every `skewspec ...` line of the README's sh blocks, in order, from a
    # fresh directory: each exits 0 and writes nothing to stderr
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SKEWSPEC_SEED", raising=False)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    commands = [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("skewspec ")]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
