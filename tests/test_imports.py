"""Each CLI subcommand loads only the library modules it uses, and the
package's lazy exports still bind every public name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import triadtopos

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDENS = Path(__file__).parent / "goldens"

#: Runs the CLI on argv and prints its exit code and the triadtopos
#: submodules the process loaded.
LOADED = """
import contextlib, io, sys
import triadtopos.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = triadtopos.cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("triadtopos.")))
"""

ALWAYS = {"cli", "_value"}
MONOID = {"zmod", "monoid"}
TOPOS = MONOID | {"topos"}
DUALITY = {"zmod", "permgroup", "duality"}
ENUMERATION = MONOID | DUALITY | {"enumeration"}


def loaded_by(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, text=True, env=env, check=True
    )
    code, *modules = proc.stdout.split()
    assert code == "0", proc.stderr
    return {name.removeprefix("triadtopos.") for name in modules}


CASES = [
    (("monoid",), MONOID),
    (("omega",), TOPOS),
    (("topologies",), TOPOS),
    (("chi", "--set", "1,5,8", "--conjugate", "T1"), TOPOS),
    (("upgrade", "--set", "0,4,7", "--topology", "L"), TOPOS),
    (("dual", "--group", "PL", "--seed", "Eb"), DUALITY),
    (("systems", "--group", "PR"), DUALITY),
    (("enumerate",), ENUMERATION),
    (("audit",), ENUMERATION),
    (("verify", "--input", str(GOLDENS / "enumerate.json")), ENUMERATION),
]


@pytest.mark.parametrize("argv,modules", CASES, ids=[argv[0] for argv, _ in CASES])
def test_each_subcommand_loads_only_its_modules(argv, modules):
    assert loaded_by(*argv) == ALWAYS | modules


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from triadtopos import *", namespace)
    for name in triadtopos.__all__:
        home = sys.modules[f"triadtopos.{triadtopos._HOME[name]}"]
        assert namespace[name] is getattr(home, name), name
    assert set(triadtopos.__all__) <= set(dir(triadtopos))
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        triadtopos.missing
