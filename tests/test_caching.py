import json
import os
import subprocess
import sys
from pathlib import Path

from triadtopos import duality, monoid, permgroup, topos

CACHED_BUILDERS = (
    duality.ti_group,
    duality.plr_group,
    duality.plr_by_label,
    monoid.triadic_monoid,
    topos.left_ideals,
    topos.omega_action_table,
    topos.omega_meet_table,
    topos.lt_topologies,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints every functools cache in the loaded triadtopos modules, with its size.
CACHE_SIZES = """
import json, sys
import triadtopos.cli
print(json.dumps({
    f"{name}.{attr}": fn.cache_info().currsize
    for name, module in sorted(sys.modules.items()) if name.startswith("triadtopos")
    for attr, fn in vars(module).items() if hasattr(fn, "cache_info")
}))
"""


def test_cached_builders_return_the_same_object():
    for builder in CACHED_BUILDERS:
        assert builder() is builder(), builder.__name__


def test_import_builds_no_cached_value():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CACHE_SIZES], capture_output=True, text=True, env=env, check=True
    )
    sizes = json.loads(proc.stdout)
    for builder in CACHED_BUILDERS:
        assert sizes[f"{builder.__module__}.{builder.__name__}"] == 0
    assert set(sizes.values()) == {0}


def test_cayley_table_is_kept_on_the_group_object():
    plr = duality.plr_group()
    first = permgroup.all_subgroups(plr)
    table = plr._cayley
    assert table is not None
    again = permgroup.all_subgroups(plr)
    assert plr._cayley is table
    assert [s.elements for s in again] == [s.elements for s in first]
    twin = permgroup.PermGroup(plr.carrier, plr.elements)
    assert twin == plr and twin._cayley is None
