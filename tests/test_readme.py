"""The Python example of README.md runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a print call on one line, then "# value", maybe with a "(note)" after it
PRINTED = re.compile(r"^print\(.*\)\s+#\s*(.*?)(?:\s*\([^()]*\))?\s*$")


def _python_block():
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_prints_its_comments():
    code = _python_block()
    want = [m.group(1) for m in map(PRINTED.match, code.splitlines()) if m]
    assert len(want) == code.count("print(")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want
