"""The package root: ``from ultraband import *`` gives every public name."""

import types

import ultraband


def test_all_lists_every_public_name_bound_at_the_root():
    bound = {
        name
        for name, value in vars(ultraband).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(ultraband.__all__) == sorted(bound | {"__version__"})
