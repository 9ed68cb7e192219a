"""PCMap: the paper's contribution — RoW, WoW, rotation, fine-grained writes."""

from repro.core.config import SystemConfig, pcmap_config
from repro.core.controller import PCMapController
from repro.core.fine import FineWriteEngine, FineWritePolicy, SilentWritePolicy
from repro.core.palp import PartitionParallelWritePolicy
from repro.core.pausing import WritePausingController, WritePausingPolicy
from repro.core.row import ReadOverWritePolicy
from repro.core.wow import WriteOverWritePolicy
from repro.core.essential import EssentialWordDetector, diff_words
from repro.core.rotation import (
    DataRotatedLayout,
    FixedLayout,
    FullyRotatedLayout,
    RankLayout,
    make_layout,
)
from repro.core.status import DimmStatusRegister, StatusSnapshot
from repro.core.systems import (
    COMPARATOR_SYSTEM_NAMES,
    PCMAP_SYSTEM_NAMES,
    SYSTEM_NAMES,
    all_systems,
    build_policies,
    make_system,
)

__all__ = [
    "SystemConfig",
    "pcmap_config",
    "PCMapController",
    "FineWriteEngine",
    "FineWritePolicy",
    "SilentWritePolicy",
    "PartitionParallelWritePolicy",
    "WritePausingController",
    "WritePausingPolicy",
    "ReadOverWritePolicy",
    "WriteOverWritePolicy",
    "EssentialWordDetector",
    "diff_words",
    "DataRotatedLayout",
    "FixedLayout",
    "FullyRotatedLayout",
    "RankLayout",
    "make_layout",
    "DimmStatusRegister",
    "StatusSnapshot",
    "COMPARATOR_SYSTEM_NAMES",
    "PCMAP_SYSTEM_NAMES",
    "SYSTEM_NAMES",
    "all_systems",
    "build_policies",
    "make_system",
]
