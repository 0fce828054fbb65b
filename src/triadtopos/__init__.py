"""Dual groups on the 24 consonant triads, the triadic monoid on Z_12,
and its subobject-classifier / Lawvere-Tierney machinery.

The names below are exported lazily (PEP 562): a module is imported the
first time one of its names is read, so `import triadtopos` loads none."""

_EXPORTS = {
    "zmod": ("AffineMap", "Chord", "chord", "all_chords", "maximal_cover", "pcset"),
    "permgroup": ("Carrier", "PermGroup", "Permutation", "close_generators", "orbit"),
    "duality": ("dual_group", "plr_group", "plr_named", "plr_subgroup", "sub_dual",
                "ti_group", "verify_dual"),
    "monoid": ("conjugated_action", "is_closed", "natural_action", "triadic_monoid"),
    "topos": ("characteristic_morphism", "left_ideals", "lt_topologies", "omega_action",
              "upgrade"),
    "enumeration": ("case_audit", "closed_covered_sets", "enumerate_rows"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
