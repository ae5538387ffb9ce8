"""Every exported name resolves, in each module and in the package."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lacunary

MODULES = ("cli", "corpus", "engine", "jsonio", "linalg", "operators", "sequences")


@pytest.mark.parametrize("name", ("lacunary",) + tuple(f"lacunary.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from lacunary import *", namespace)
    assert set(lacunary.__all__) <= set(namespace)


# Every command is a fresh interpreter, so what `import lacunary.cli` loads is
# paid on each one: neither `dataclasses` (which loads `inspect`) nor the
# corpus, which only `lacunary corpus` reads.
STARTUP_PROBE = """
import json, sys
import lacunary.cli
loaded = [m for m in ("dataclasses", "inspect", "lacunary.corpus") if m in sys.modules]
from lacunary import ZeroValueRejected
print(json.dumps({"loaded": loaded, "late": ZeroValueRejected.__module__}))
"""


def test_cli_import_skips_dataclasses_and_corpus():
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def python(*args):
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert json.loads(python("-c", STARTUP_PROBE)) == {
        "loaded": [], "late": "lacunary.corpus",
    }
    entry = json.loads(python("-m", "lacunary.cli", "corpus", "vanish_on_multiples_r2"))
    assert entry["name"] == "vanish_on_multiples_r2"
