"""The README's command-line examples, run through main() and compared
with the output the README prints."""

import re
import shlex
from pathlib import Path

from tuhf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# Examples whose inputs (iso_a.tower, v.mat) or output ("...") the README
# leaves out.
SKIPPED = (("iso",), ("normalizer", "split"), ("check", "all"))


def _examples():
    """(command, expected output lines) for every ``$`` line of the
    README's ``sh`` blocks; the output runs up to the next ``$``."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        command, lines = None, []
        for line in block.splitlines() + ["$"]:
            if not line.startswith("$"):
                lines.append(line)
                continue
            if command is not None:
                while lines and not lines[-1]:
                    lines.pop()
                yield command, lines
            command, lines = line[1:].strip(), []


def test_readme_examples(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for command, expected in _examples():
        argv = shlex.split(command)
        if argv[:2] == ["cat", "alt4.tower"]:
            Path("alt4.tower").write_text("\n".join(expected) + "\n")
            continue
        if argv[0] != "tuhf" or any(tuple(argv[1:1 + len(s)]) == s for s in SKIPPED):
            continue
        target = argv[-1] if argv[-2] == ">" else None
        code = main(argv[1:-2] if target else argv[1:])
        out = capsys.readouterr().out
        if target:
            Path(target).write_text(out)
            out = ""
        assert (code, out.splitlines()) == (0, expected), command
        ran.append(command.split()[1])
    assert ran == ["tower", "out-rank", "shift", "factor", "embed", "embed", "gelfand"]
