"""The package surface: its export list and what importing it loads."""

import subprocess
import sys
import types

import omlkit


def test_all_lists_every_public_name():
    public = [name for name, value in vars(omlkit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(omlkit.__all__) == sorted(public)


def test_cli_import_leaves_networkx_unloaded():
    code = "import omlkit.cli, sys; print('networkx' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "False\n"
