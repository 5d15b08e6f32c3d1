"""The benchmark tracer in ``perfbench/tracer.py`` wraps cutlab functions by
module and name. Renaming or deleting a traced function breaks its install
or empties its counters, and this test fails when that happens. It only
reads ``perfbench/``."""

import contextlib
import io
from pathlib import Path

from cutlab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_counts_an_exact_solve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["exact", "--family", "saks", "--params", "r=3,k=2"])
    finally:
        t.uninstall()
    assert code == 0
    _, counts, _ = t.summary()
    assert counts["solvers.bb_oracle_calls"] > 0
    assert counts["gadgets.nodes_built"] > 0
