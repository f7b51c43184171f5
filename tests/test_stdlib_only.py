"""The runtime is stdlib-only: every orthoscope module imports in a bare
interpreter (python -S, no site-packages) and loads no top-level module
outside sys.stdlib_module_names."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
import orthoscope
names = [info.name for info in pkgutil.walk_packages(orthoscope.__path__, "orthoscope.")]
for name in names:
    importlib.import_module(name)
outside = {name.partition(".")[0] for name in sys.modules} - sys.stdlib_module_names
print(json.dumps({"modules": names, "outside": sorted(outside - {"orthoscope", "__main__"})}))
"""


def test_every_module_imports_from_the_stdlib_alone():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", PROBE], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    probe = json.loads(out.stdout)
    expected = {".".join(path.relative_to(SRC).with_suffix("").parts)
                for path in (SRC / "orthoscope").rglob("*.py") if path.stem != "__init__"}
    assert set(probe["modules"]) >= expected
    assert probe["outside"] == []
