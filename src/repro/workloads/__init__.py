"""Guest workloads used to evaluate migration (paper §VI-B).

The paper's three evaluation workloads — a dynamic web server (SPECweb
banking), a low-latency video stream server, and a diabolical I/O server
(Bonnie++) — plus a kernel build for the write-locality study and an idle
guest for overhead baselines.
"""

from .base import IdleWorkload, Workload
from .diabolical import BonniePlusPlus
from .iomodel import (
    AddressModel,
    FreshAppendModel,
    MemoryDirtier,
    SequentialModel,
    UniformModel,
)
from .kernelbuild import KernelBuild
from .streaming import VideoStreamServer
from .webserver import SpecWebBanking

__all__ = [
    "AddressModel",
    "BonniePlusPlus",
    "FreshAppendModel",
    "IdleWorkload",
    "KernelBuild",
    "MemoryDirtier",
    "SequentialModel",
    "SpecWebBanking",
    "UniformModel",
    "VideoStreamServer",
    "Workload",
]
