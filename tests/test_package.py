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


def test_cli_import_loads_no_mpmath():
    probe = "import sys, multisums.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))"
    env = {**os.environ, "PYTHONPATH": str(Path(multisums.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "[]"
