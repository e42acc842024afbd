"""Virtual machine substrate: CPU state, guest memory, domains, and hosts."""

from .cpu import CPUState
from .domain import Domain, DomainState
from .host import Host
from .memory import GuestMemory

__all__ = [
    "CPUState",
    "Domain",
    "DomainState",
    "GuestMemory",
    "Host",
]
