"""Checks on the suite's own tools: the mutation table and the oracles."""
import ast
import sys
from pathlib import Path

import mutants


def test_every_mutant_old_text_occurs_once():
    # A change that moves or rewrites a row's old text updates the row;
    # `python tests/mutants.py` runs the mutants themselves.
    assert mutants.table_errors() == []


def test_a_selection_of_no_test_is_reported(monkeypatch):
    row = mutants.MUTANTS[0]
    stale = {"tests/test_gone.py": "tests/test_gone.py",
             "tests/test_cli.py::test_gone": "test_gone",
             "tests/test_grading.py::TestGone::test_x": "TestGone",
             "tests/test_grading.py::TestGradeCorpus::test_x[1]": "test_x"}
    monkeypatch.setattr(mutants, "MUTANTS", [row._replace(selection=node_id)
                                             for node_id in stale])
    assert [error for error in mutants.table_errors()
            if "selects no test" in error] == [
        f"{row.name}: {node_id} selects no test: {missing} does not exist"
        for node_id, missing in stale.items()]


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
