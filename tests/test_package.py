"""The package's public names: __all__ against what indfree binds."""

import sys
import types

import indfree

# the public constants, each with the submodule that defines it
CONSTANTS = {"ENUMERATION_CAP": "indfree.enumeration", "MAX_ORDER": "indfree.graphs"}


def test_all_is_sorted_and_complete():
    assert indfree.__all__ == sorted(set(indfree.__all__))
    assert len(indfree.__all__) == 63


def test_every_name_in_all_is_defined_in_a_submodule():
    for name in indfree.__all__:
        obj = getattr(indfree, name)
        home = CONSTANTS.get(name) or obj.__module__
        assert home.startswith("indfree."), name
        assert vars(sys.modules[home])[name] is obj, name


def test_every_public_attribute_is_in_all():
    public = {
        name
        for name, obj in vars(indfree).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(indfree.__all__)
