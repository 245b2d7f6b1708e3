import os
import subprocess
import sys
from pathlib import Path

import multisums
from multisums import core, exact_arith, identities, partitions, polynomials, special_sums


def test_package_api_is_the_union_of_module_apis():
    modules = (core, exact_arith, identities, partitions, polynomials, special_sums)
    expected = ["__version__"] + [name for module in modules for name in module.__all__]
    assert multisums.__all__ == expected
    assert len(set(expected)) == len(expected)
    assert all(hasattr(multisums, name) for name in expected)


def _modules_after_cli_import(*flags: str) -> set[str]:
    probe = "import sys, multisums.cli; print('\\n'.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    argv = [sys.executable, *flags, "-c", probe]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, env=env).stdout
    return set(out.split())


def test_cli_import_loads_no_mpmath():
    assert not {m for m in _modules_after_cli_import() if m.split(".")[0] == "mpmath"}


def test_cli_import_is_lazy():
    # only selftest needs the acceptance suite, and only --jobs a thread pool
    # the records are slotted classes, so no dataclasses and no inspect at start-up
    loaded = _modules_after_cli_import()
    assert "multisums.acceptance" not in loaded
    assert "concurrent.futures" not in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_cli_import_without_site_loads_no_resource_reader():
    # -S: no site-packages .pth file can load importlib.resources first and mask it;
    # only the zeta table reads package data, and it imports the reader itself
    loaded = _modules_after_cli_import("-S")
    assert not {"importlib.resources", "dataclasses", "inspect"} & loaded
