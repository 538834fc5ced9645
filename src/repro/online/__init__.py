"""Online tertiary storage: batching queue, robotic library, system."""

from repro.online.batch_queue import (
    BatchPolicy,
    BatchQueue,
    DeadlineBatchPolicy,
)

# Canonical home since the repro.library subsystem; re-exported here for
# compatibility (the old repro.online.library module is gone).
from repro.library.cartridge import (
    Cartridge,
    DEFAULT_EXCHANGE_SECONDS,
    TapeLibrary,
)
from repro.online.metrics import CacheStats, ResponseStats
from repro.online.striping import (
    LogicalRead,
    StripeMapping,
    StripedBatchResult,
    StripedReadCoordinator,
    StripedTapeArray,
    StripedVolume,
    striped_volume,
)
from repro.online.system import BatchRecord, TertiaryStorageSystem

__all__ = [
    "BatchPolicy",
    "BatchQueue",
    "BatchRecord",
    "CacheStats",
    "Cartridge",
    "DEFAULT_EXCHANGE_SECONDS",
    "DeadlineBatchPolicy",
    "ResponseStats",
    "LogicalRead",
    "StripeMapping",
    "StripedBatchResult",
    "StripedReadCoordinator",
    "StripedTapeArray",
    "StripedVolume",
    "striped_volume",
    "TapeLibrary",
    "TertiaryStorageSystem",
]
