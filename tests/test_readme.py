"""The README's library example runs against this checkout's sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs():
    # a renamed or deleted function the example names fails here
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    # the series and the closed form, one line each
    assert len(res.stdout.splitlines()) == 2
