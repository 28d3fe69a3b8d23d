"""`src/defectkit` stays within the line budget of ROADMAP item 4 ("Lean")."""

from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "defectkit"
# Raising the budget is a ROADMAP decision, which CHANGES.md states.
LINE_BUDGET = 2300


def test_src_stays_within_the_line_budget():
    # Newlines, as `wc -l src/defectkit/*.py` counts them.
    counts = {path.name: path.read_bytes().count(b"\n") for path in sorted(PACKAGE.glob("*.py"))}
    total = sum(counts.values())
    assert total <= LINE_BUDGET, (
        f"src/defectkit/*.py holds {total} lines, over the {LINE_BUDGET}-line budget of "
        f"ROADMAP item 4 (Lean); pay lines back or raise the budget there. Per file: {counts}")
