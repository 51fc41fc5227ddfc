import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture()
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` makes ``isoslice.volume._usable_cpus`` read n CPUs, for every run split and pool alike."""

    def set_cpus(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))

    return set_cpus
