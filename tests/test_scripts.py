import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import beamtrack.allocate as allocate_module

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_exits_3_on_a_failed_point(script, monkeypatch, capsys):
    # every script runs kkt somewhere; a failed multiplier search must reach
    # stderr and the exit code, not just print nan in the table
    monkeypatch.setattr(allocate_module, "_stationary_roots",
                        lambda mu0, w, m_b, r0: np.full(len(w), np.nan))
    monkeypatch.setattr(sys, "argv", [str(script), "--frames", "2"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(script), run_name="__main__")
    assert exit_info.value.code == 3
    err = capsys.readouterr().err
    assert "kkt point" in err or "power point" in err
    assert "ArithmeticError: KKT solve" in err
