"""Workstation-host coupling (paper, section 4; [HHMM87])."""

from repro.coupling.server import PrimaServer
from repro.coupling.workstation import ObjectBuffer, Workstation

__all__ = [
    "ObjectBuffer",
    "PrimaServer",
    "Workstation",
]
