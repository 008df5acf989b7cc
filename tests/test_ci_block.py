"""The "Installed console script" step of the CI workflow, run here.

The step is read from .github/workflows/tests.yml itself, not from a copy,
and run with `bash -e` in a scratch directory, through a `leapertour` shim
on PATH that calls cli.main with the package from src/.  CI runs the real
console script, which also tests the [project.scripts] entry point.

Run with: python -m pytest -m slow tests/test_ci_block.py
"""

import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STEP = "- name: Installed console script"


def run_block(workflow: str) -> str:
    """The script of the step's `run: |` block, without its indentation."""
    lines = workflow.splitlines()
    start = next((i for i, line in enumerate(lines) if line.strip() == STEP), None)
    assert start is not None, f"the workflow has no step {STEP!r}"
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip()) + 2
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        block.append(line[indent:])
    assert any(block), "the step's run block is empty"
    return "\n".join(block) + "\n"


@pytest.mark.slow
def test_installed_console_script_block_passes(tmp_path):
    script = run_block((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "leapertour"
    shim.write_text(f"#!{sys.executable}\nimport sys\nfrom leapertour.cli import main\nsys.exit(main())\n")
    shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
    work = tmp_path / "work"
    work.mkdir()
    (tmp_path / "block.sh").write_text(script)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}", PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        ["bash", "-e", str(tmp_path / "block.sh")], cwd=work, env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, f"the block exited {result.returncode}; its stderr:\n{result.stderr}"
