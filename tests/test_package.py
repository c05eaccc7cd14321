"""The package's public surface agrees with what its modules define.

Every entry of a module's `__all__` must resolve: the per-layer tracer
and `from matcoh.<module> import *` read each one by name.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import matcoh


def test_all_entries_defined_and_package_imports_listed():
    modules = {info.name: importlib.import_module(f"matcoh.{info.name}")
               for info in pkgutil.iter_modules(matcoh.__path__)}
    for name, module in modules.items():
        undefined = [attr for attr in getattr(module, "__all__", ())
                     if not hasattr(module, attr)]
        assert undefined == [], f"matcoh.{name}.__all__ lists undefined {undefined}"
    imports = [node for node in ast.parse(Path(matcoh.__file__).read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        unlisted = [alias.name for alias in node.names
                    if alias.name not in modules[node.module].__all__]
        assert unlisted == [], (
            f"matcoh imports {unlisted} from matcoh.{node.module}, "
            f"which its __all__ does not list")
