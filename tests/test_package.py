"""Package surface: the exported names exist and the runtime needs only the standard library."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import xorkron

SRC = Path(xorkron.__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from xorkron import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(xorkron.__all__) <= set(namespace)


def test_import_loads_only_the_standard_library():
    # Compared against what the bare interpreter already holds, since site hooks may load more.
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "before = set(sys.modules)\n"
        "import xorkron, xorkron.cli\n"
        "for name in sorted(set(sys.modules) - before):\n"
        "    top = name.partition('.')[0]\n"
        "    if top != 'xorkron' and top not in sys.stdlib_module_names:\n"
        "        print(name)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == ""
