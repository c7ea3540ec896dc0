"""The benchmark in bench/ reaches into the library by name: child.py wraps each
function named in layers.py's SELF_METRIC and reads attributes of what
sift_values returns, and gate.py calls its oracles through the package.  The
bench files are read here with ast, never imported, so a library change that
deletes one of those names fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

import thinsieve
from thinsieve.semigroup import BilinearSet
from thinsieve.sieve import SiftingSequence

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text())


def _assigned(tree, name):
    """The value node of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no assignment to {name}")


SELF_METRIC = ast.literal_eval(_assigned(_tree("layers.py"), "SELF_METRIC"))


@pytest.mark.parametrize("span", sorted(SELF_METRIC))
def test_every_wrapped_function_exists(span):
    module, function = span.split(".")
    # child.py wraps iter_traces on BilinearSet, the class that defines it
    owner = BilinearSet if span == "semigroup.iter_traces" else importlib.import_module(
        f"thinsieve.{module}")
    assert callable(getattr(owner, function, None)), span


def _lib_chains(tree):
    """Every dotted name gate.py reads through its `lib` argument, as tuples."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "lib":
            chains.add(tuple(reversed(parts)))
    return chains


def test_every_name_the_gate_uses_exists():
    chains = _lib_chains(_tree("gate.py"))
    assert ("ball_count",) in chains and ("arith", "divisors") in chains
    for chain in chains:
        value = thinsieve
        for part in chain:
            assert hasattr(value, part), "lib." + ".".join(chain)
            value = getattr(value, part)


def test_sifting_sequences_have_what_the_work_count_reads():
    counts = _assigned(_tree("child.py"), "_COUNTS")
    count = dict(zip(map(ast.literal_eval, counts.keys), counts.values))["sieve.sift_values"]
    arg = count.args.args[0].arg  # a lambda of the sequence
    read = {n.attr for n in ast.walk(count.body)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == arg}
    assert read  # source_size and values today
    seq = SiftingSequence.from_values([5, 5, 12])
    for attr in read:
        assert hasattr(seq, attr), attr
