"""The benchmark tracer in perfbench/ wraps program names by where they are
looked up; a renamed or deleted name leaves its hook with no target."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_tracer_hook_resolves():
    code = "import tracer\nt = tracer.Tracer()\nt.install()\nprint(t.missing)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"
