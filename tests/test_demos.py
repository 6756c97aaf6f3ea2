"""Every narrative demo script, and the python blocks and CLI commands of README.md, run to completion against the
checkout's package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bibindex.cli import cli_dispatch

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run_in_one_namespace(capsys):
    assert len(README_BLOCKS) >= 3
    namespace = {"__name__": "readme"}
    for block in README_BLOCKS:
        exec(compile(block, "README.md", "exec"), namespace)
    assert len(namespace["reports"]) == 6 and "immunology" in capsys.readouterr().out.lower()


def test_readme_commands_print_their_goldens(capsys):
    """Each line of the "Command line" block, on the golden cohort, prints the plain golden of its case."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 5 and all(argv[0] == "bibindex" for argv in commands)
    cohort = str(ROOT / "tests" / "data" / "golden_cohort.csv")
    for argv in commands:
        argv = [cohort if arg == "cohort.csv" else arg for arg in argv[1:]]
        case = "-".join([argv[0], *(argv[i + 1] for i, arg in enumerate(argv) if arg in ("--mode", "--table"))])
        assert cli_dispatch(argv) == 0, capsys.readouterr().err
        assert capsys.readouterr().out.encode() == (ROOT / "tests" / "golden" / f"{case}.plain").read_bytes(), case
