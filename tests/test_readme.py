"""README's "Command-line usage" block, replayed through ``main()`` on a
copy of the checked-in fixtures, prints the outputs README states."""

import contextlib
import io
import re
import shlex
import shutil
from pathlib import Path

from centroidrank.cli import main

ROOT = Path(__file__).parent.parent


def _usage() -> tuple[list[list[str]], str]:
    """The block's commands, each split as the shell splits it, and the
    section's text."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command-line usage")[1]
    section = section.split("\n## ")[0]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv for argv in commands if argv], section


def _cut_f2(source: Path, target: Path) -> None:
    """``cut -f2 source > target``: a line's second tab-separated field, or
    the whole line when it holds no tab."""
    lines = source.read_text(encoding="utf-8").splitlines()
    target.write_text(
        "".join((line.split("\t")[1] if "\t" in line else line) + "\n" for line in lines),
        encoding="utf-8",
    )


def test_command_line_usage_block_prints_what_readme_states(tmp_path, monkeypatch):
    commands, section = _usage()
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    monkeypatch.chdir(tmp_path)
    printed = []
    for argv in commands:
        if argv[0] == "cd":
            monkeypatch.chdir(argv[1])
        elif argv[0] == "cut":
            assert argv[1] == "-f2" and argv[3] == ">", argv
            _cut_f2(Path(argv[2]), Path(argv[4]))
        else:
            assert argv[0] == "centroidrank", argv
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv[1:]) == 0, argv
            printed.append((argv, out.getvalue()))
    evals = {argv[argv.index("--method") + 1]: out for argv, out in printed if argv[1] == "eval"}
    assert evals["cd"].startswith("MAP 0.230 ")
    assert evals["cd-q"].startswith("MAP 0.819 ")
    assert [out for argv, out in printed if argv[1] == "compare"] == [
        "W 0 p 0.0005 significant\n"
    ]
    for stated in ("`MAP 0.230 ...` for `cd`", "`MAP 0.819 ...`", "`W 0 p 0.0005 significant`"):
        assert stated in section
