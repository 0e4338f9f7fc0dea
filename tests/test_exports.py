"""The package facade: `fatpoints.__all__` is derived from the modules'."""

from __future__ import annotations

import fatpoints
from fatpoints import blowup, gfprime, interp, pipeline, quadricmap, syscore

MODULES = (syscore, gfprime, interp, blowup, quadricmap, pipeline)


def test_package_exports_are_the_module_lists_in_order():
    expected = ["__version__"] + [name for mod in MODULES for name in mod.__all__]
    assert fatpoints.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_export_is_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(fatpoints, name) is getattr(mod, name), (mod.__name__, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fatpoints import *", namespace)
    assert set(fatpoints.__all__) <= namespace.keys()
    assert namespace["__version__"] == fatpoints.__version__


def test_retired_and_private_names_stay_out_of_the_facade():
    assert "mulmod_vec" in fatpoints.__all__
    assert "conditions_at_point" in syscore.__all__
    for name in ("report_from_json", "parse_config_file", "resolve_config"):
        assert name not in fatpoints.__all__
    assert not hasattr(pipeline, "report_from_json")
    assert callable(pipeline.parse_config_file) and callable(pipeline.resolve_config)
