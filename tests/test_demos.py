"""Every demo script runs to completion and prints something; so does the
README's quick tour, which prints what its comments say."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()


def test_readme_quick_tour_prints_what_its_comments_say():
    """The README's python block runs, and each printed value matches the
    comment on its line: a literal (True, a number) or `~x`, a magnitude
    of at most 10 x."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    claims = [line.split("#", 1)[1].split()[0].rstrip(":") for line in block.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert len(printed) == len(claims) == 3
    for value, claim in zip(printed, claims):
        if claim.startswith("~"):
            assert abs(float(value)) <= 10.0 * float(claim[1:]), (value, claim)
        elif claim in ("True", "False"):
            assert value == claim
        else:
            assert float(value) == pytest.approx(float(claim), rel=1e-12), (value, claim)
