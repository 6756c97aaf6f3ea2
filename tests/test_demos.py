"""Every narrative demo script, and the python blocks of README.md, run to completion against the checkout's
package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.DOTALL | re.MULTILINE)


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
