"""Scan-size invariants: each exhaustive search checks every candidate of
its complete domain, so a faster search cannot come from scanning less."""

import sys

import pytest

from triadtopos import duality, enumeration, permgroup, topos, zmod


def clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("triadtopos"):
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


@pytest.fixture
def cold():
    """Empty every cache in the package before and after the test."""
    clear_caches()
    yield
    clear_caches()


def count_calls(monkeypatch, module, name):
    """Replace module.name by a spy; returns the list of its results."""
    results = []
    original = getattr(module, name)

    def spy(*args):
        result = original(*args)
        results.append(result)
        return result

    monkeypatch.setattr(module, name, spy)
    return results


def test_topology_scan_checks_all_6_to_the_6_maps(cold, monkeypatch):
    results = count_calls(monkeypatch, topos, "_is_topology")
    assert len(topos.lt_topologies()) == 6
    assert (len(results), sum(results)) == (6**6, 6)


def test_closed_covered_scan_checks_all_4095_sets(cold, monkeypatch):
    results = count_calls(monkeypatch, enumeration, "_is_closed_covered")
    assert len(enumeration.closed_covered_sets()) == 70
    assert (len(results), sum(results)) == (2**12 - 1, 70)


def test_left_ideal_scan_checks_all_256_subsets(cold, monkeypatch):
    results = count_calls(monkeypatch, topos, "_is_left_ideal")
    assert len(topos.left_ideals()) == 6
    assert (len(results), sum(results)) == (2**8, 6)


@pytest.mark.parametrize("build", [duality.plr_group, duality.ti_group], ids=["PLR", "TI"])
def test_all_subgroups_closes_the_trivial_group_and_all_576_pairs(cold, monkeypatch, build):
    group = build()
    results = count_calls(monkeypatch, permgroup, "close_generators")
    assert len(permgroup.all_subgroups(group)) == 34
    assert (len(results), len({sub.elements for sub in results})) == (1 + 24**2, 34)


def test_sub_dual_checks_commutation_on_two_generators_of_each_group(monkeypatch):
    """PLR is generated by P and Q1 and T/I by I7 and T1, so checking that the
    pair commutes takes 2 x 2 calls, not one per element pair (24 x 24)."""
    calls = []
    original = permgroup.Permutation.commutes_with

    def spy(p, q):
        calls.append((p, q))
        return original(p, q)

    monkeypatch.setattr(permgroup.Permutation, "commutes_with", spy)
    g0 = duality.plr_subgroup("P", "L")
    duality.sub_dual(duality.plr_group(), duality.ti_group(), g0, zmod.chord("C"))
    assert 0 < len(calls) <= 4
