import importlib
import inspect
import pkgutil

import pytest

import thinwall

MODULES = [importlib.import_module(f"thinwall.{m.name}")
           for m in pkgutil.iter_modules(thinwall.__path__)]


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_all_lists_every_public_function_and_class(mod):
    # a module without __all__ exports every public name already
    public = {name for name, obj in vars(mod).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    assert public - set(getattr(mod, "__all__", public)) == set()
