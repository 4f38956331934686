"""What a process pays to start bihom: importing it loads neither
``dataclasses`` nor ``inspect``, which with the class decorations took
about half of the import's time.  The check runs in a fresh interpreter
and compares against the modules loaded before the import, so a ``site``
that preloads either module still passes."""

import os
import subprocess
import sys

import bihom

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bihom.__file__)))
CODE = """
import sys
before = set(sys.modules)
import bihom, bihom.io_cli, bihom.qexamples
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


def test_importing_bihom_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CODE], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"
