import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_demo_03_point_orbits_and_stabilizers(capsys):
    runpy.run_path(str(DEMOS / "03_point_orbits_and_stabilizers.py"))
    out = capsys.readouterr().out
    assert "q = 3: K has 10 point orbits" in out
    assert "q = 5: K has 14 point orbits" in out
    assert out.count("G' gives the same decomposition: True") == 2
