"""Asymptotic guards from operation counts, not wall time.

Each test runs a stage on a ladder of sizes, counts one operation through
a monkeypatched wrapper, and asserts the count, or the count per unit of
size, on every rung: a stage whose work should not grow with the board, or
should grow linearly, then fails here before it shows on a benchmark.
"""

import leapertour.keygraph as keygraph
from leapertour.geom import Leaper


def test_build_key_checks_each_pencil_step_once(monkeypatch):
    # 8 rhombus steps and 24 outer pencils, whatever the number of edges:
    # 3,208 edges at (1,20), 51,208 at (1,80)
    calls = []
    real = keygraph._check_move

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(keygraph, "_check_move", counting)
    counts = []
    for q in (20, 40, 80):
        calls.clear()
        keygraph.build_key(Leaper(1, q))
        counts.append(len(calls))
    assert counts == [32, 32, 32]
