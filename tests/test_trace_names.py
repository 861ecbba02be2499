"""The benchmark's layer trace wraps rangesim functions by name; a name
that no longer resolves blinds the trace without failing it."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"

# Names the trace still wraps but rangesim no longer defines, until the
# trace is pointed at the functions the hot path calls now.
DEAD = {
    ("rangesim.harness", "run_round"),
    ("rangesim.harness", "metrics_snapshot"),
    ("rangesim.metrics", "small_world_index"),
    ("rangesim.metrics", "average_shortest_path_length"),
    ("rangesim.metrics", "average_clustering"),
    ("rangesim.metrics", "sample_gnm"),
    ("rangesim.diffusion", "try_combine"),
}


def traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of `TARGETS` and
    `GENERATOR_TARGETS`, read from the source without importing it."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    tables = {node.targets[0].id: node.value.elts
              for node in tree.body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("TARGETS", "GENERATOR_TARGETS")}
    # an entry's hook is a name, so only its leading strings are evaluated
    return [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
            for table in ("TARGETS", "GENERATOR_TARGETS") for entry in tables[table]]


def test_every_traced_name_resolves_except_the_known_dead():
    missing = {(module, name) for module, name in traced_names()
               if not hasattr(importlib.import_module(module), name)}
    assert missing == DEAD
