"""Start-up work, counted rather than timed: the modules that `import
pdawg.cli` loads in a fresh interpreter.

At the sizes the CLI is run on, a command's wall time is mostly interpreter
start-up and imports, so a heavy import costs every command.  With bytecode
present, `-X importtime` put `click` at 12.5 ms and `dataclasses` at 6.4 ms
more through `inspect`, which loads `ast`, `dis` and `tokenize`; without
either, `python -c "import pdawg.cli"` fell from 72.5 to 49.5 ms (medians of
15 runs).  The package uses neither, and no command but `selftest` loads the
cross-checks of `pdawg.verify`.
"""

import subprocess
import sys

from helpers import src_env

HEAVY = ("click", "inspect", "dataclasses", "ast", "dis", "tokenize")

PROBE = """\
import sys
before = set(sys.modules)
import pdawg.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_module():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=src_env(), check=True
    ).stdout
    loaded = set(out.split())
    assert "pdawg.cli" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded & set(HEAVY))
    assert "pdawg.verify" not in loaded
