"""Network substrate: links, rate limiting, and typed migration channels.

The delta cache of the adaptive transfer stack lives here too.  Multifd
lanes are plain channels over one link, built by the migration that uses
them — see docs/TRANSFER.md for the layer guide.
"""

from .channel import Channel
from .compression import Compressor
from .delta import DeltaCache
from .link import DuplexLink, Link
from .messages import (
    HEADER_NBYTES,
    BitmapMsg,
    BlockDataMsg,
    ControlMsg,
    CPUStateMsg,
    DeltaMsg,
    MemoryPagesMsg,
    Message,
    PullRequestMsg,
)
from .ratelimit import NullLimiter, TokenBucket

__all__ = [
    "BitmapMsg",
    "BlockDataMsg",
    "CPUStateMsg",
    "Channel",
    "Compressor",
    "ControlMsg",
    "DeltaCache",
    "DeltaMsg",
    "DuplexLink",
    "HEADER_NBYTES",
    "Link",
    "MemoryPagesMsg",
    "Message",
    "NullLimiter",
    "PullRequestMsg",
    "TokenBucket",
]
