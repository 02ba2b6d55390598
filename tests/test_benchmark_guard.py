"""What the benchmark in perfbench/ needs of the library, checked here so
that a change of shape fails the test suite rather than the benchmark.

The benchmark's modules are loaded by path and only read."""

import importlib.util
import random
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from oracles import denormalize, gen_prog
from prhl import syntax
from prhl.cli import read_triple_file
from prhl.syntax import prog_vars, seq_of

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports prhltext by name
    try:
        return _load("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves():
    tracing = _load("tracing")
    for span, module, fname, _, _ in tracing.TARGETS:
        assert callable(getattr(module, fname, None)), f"{span}: {module.__name__}.{fname} is gone"
    assert callable(tracing.assertions.BoundedOracle.entails)


def test_benchmark_sees_the_variables_the_cli_sees(workloads):
    progs = [read_triple_file(str(path)).prog for path in sorted(CORPUS.glob("*.triple"))]
    rng = random.Random(7)
    for _ in range(200):
        p = gen_prog(rng, ["x", "i", "y"], 4)
        progs += [p, seq_of(p), denormalize(rng, p)]
    for p in progs:
        assert workloads.term_vars(p) == prog_vars(p)


# the constructor fields of every node class; term_vars, tree_nodes and
# wp_loopfree walk terms by these, so per-node data such as ``fv`` must
# not show among them
NODE_FIELDS = {
    "Var": ("name",),
    "Const": ("value",),
    "BinOp": ("op", "left", "right"),
    "Eq": ("left", "right"),
    "Le": ("left", "right"),
    "BNot": ("arg",),
    "BAnd": ("left", "right"),
    "BOr": ("left", "right"),
    "Empty": (),
    "Assign": ("name", "expr"),
    "Seq": ("first", "second"),
    "While": ("guard", "body", "invariant"),
    "Choice": ("left", "right"),
    "Bool": ("expr",),
    "Not": ("arg",),
    "And": ("left", "right"),
    "Or": ("left", "right"),
    "Implies": ("left", "right"),
    "Exists": ("var", "body"),
    "Forall": ("var", "body"),
}


def test_node_fields_are_the_constructor_fields():
    nodes = {name: c for name, c in vars(syntax).items() if isinstance(c, type) and issubclass(c, syntax._Node) and is_dataclass(c)}
    assert {name: tuple(f.name for f in fields(c)) for name, c in nodes.items()} == NODE_FIELDS
