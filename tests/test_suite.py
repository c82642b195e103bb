"""Checks on the suite's own tools: the mutation table and the oracles."""
import ast
import sys
from pathlib import Path

import mutants


def test_every_mutant_old_text_occurs_once():
    # A change that moves or rewrites a row's old text updates the row;
    # `python tests/mutants.py` runs the mutants themselves.
    assert mutants.table_errors() == []


def test_oracles_import_only_the_stdlib():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(
        encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported
    assert {name.split(".")[0] for name in imported} \
        <= sys.stdlib_module_names
