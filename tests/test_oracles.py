"""The shared reference module, loaded the way the benchmark loads it."""

import importlib.util
import sys
from pathlib import Path


def test_oracles_load_by_path_without_a_module_entry():
    # perfbench/workloads.py runs tests/oracles.py from its path with no
    # sys.modules entry (tests/ is not a package); a @dataclass there then
    # fails, because dataclasses looks its module up in sys.modules
    spec = importlib.util.spec_from_file_location("oracles_by_path", Path(__file__).with_name("oracles.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert "oracles_by_path" not in sys.modules
    assert callable(mod.sweep) and callable(mod.gen_prog)
