"""The catch matrix: which tests of the whole suite fail under each row of
the mutation table in `mutants.py`. Run it, with the test dependencies, as

    python tests/catch_matrix.py

Each row is applied to a copy of the tree by `mutants.run`, which runs the
whole suite there with `mutants.PYTEST_ARGS` less `-x`, as many rows at
once as there are CPUs. Each row prints as one Markdown list item: its
number, name and selection, then the tests that fail under it, grouped by
file. `test_suite.py::test_every_mutant_old_text_occurs_once` is left out:
it fails under every row whose new text drops its old text, whatever the
row breaks. The script exits 1 when a row's selection has no failing test,
or when the suite does not run under a row.
"""
import concurrent.futures
import sys

import mutants

PYTEST_ARGS = (*(arg for arg in mutants.PYTEST_ARGS if arg != "-x"),
               "--tb=no", "-rf", "tests")
OLD_TEXT_CHECK = "tests/test_suite.py::test_every_mutant_old_text_occurs_once"


def failed(output: str) -> list[str]:
    """The node ids that pytest's short summary reports as failed."""
    return [line[len("FAILED "):].partition(" - ")[0]
            for line in output.splitlines() if line.startswith("FAILED ")]


def row_line(number: int, mutant: mutants.Mutant, ids: list[str]) -> str:
    """The row as a list item: `tests/` and `.py` are dropped from ids."""
    by_file: dict[str, list[str]] = {}
    for node_id in ids:
        path, _, name = node_id.partition("::")
        by_file.setdefault(path.removeprefix("tests/"), []).append(name)
    selection = " ".join(node_id.removeprefix("tests/")
                         for node_id in mutant.selection.split())
    tests = "; ".join(f"`{path.removesuffix('.py')}`: {', '.join(names)}"
                      for path, names in by_file.items())
    count = f"{len(ids)} failing test{'s' * (len(ids) != 1)}"
    return (f"  - Row {number}, {mutant.name} (selection `{selection}`); "
            f"{count}{': ' * bool(ids)}{tests}.")


def main() -> int:
    errors = mutants.table_errors()
    for error in errors:
        print(error)
    if errors:
        return 1
    bad = 0
    with concurrent.futures.ThreadPoolExecutor(mutants.workers()) as pool:
        outcomes = pool.map(lambda m: mutants.run(m, PYTEST_ARGS),
                            mutants.MUTANTS)
        for number, (mutant, (outcome, _, output)) in enumerate(
                zip(mutants.MUTANTS, outcomes)):
            ids = [node_id for node_id in failed(output)
                   if node_id != OLD_TEXT_CHECK]
            print(row_line(number, mutant, ids), flush=True)
            selected = any(node_id == chosen or node_id.startswith(
                (f"{chosen}::", f"{chosen}["))
                for node_id in ids for chosen in mutant.selection.split())
            if outcome == "error" or not selected:
                bad += 1
                print(*output.splitlines()[-15:], sep="\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
