"""Main-memory facade: four channels, one controller each (Table I).

Routes requests to the owning channel controller by address, shares one
functional backing store across channels (line contents are global), and
aggregates per-channel statistics for the metrics layer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.memory.address import AddressMapper
from repro.memory.controller import MemoryController
from repro.memory.request import MemoryRequest, RequestKind
from repro.memory.storage import MemoryStorage
from repro.sim.engine import Engine
from repro.sim.metrics import MemoryStats
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.core.config import SystemConfig


def make_controller(
    engine: Engine,
    config: "SystemConfig",
    channel_id: int = 0,
    storage: Optional[MemoryStorage] = None,
    seed: int = 1,
    telemetry: Optional[Telemetry] = None,
) -> MemoryController:
    """Build the right controller class for ``config``."""
    if config.is_pcmap:
        # Imported here to avoid a circular import at module load time
        # (core.controller subclasses memory.controller).
        from repro.core.controller import PCMapController

        return PCMapController(
            engine, config, channel_id, storage, seed, telemetry
        )
    if getattr(config, "enable_write_pausing", False):
        from repro.core.pausing import WritePausingController

        return WritePausingController(
            engine, config, channel_id, storage, seed, telemetry
        )
    return MemoryController(engine, config, channel_id, storage, seed, telemetry)


class MainMemory:
    """The full PCM main memory behind the LLC."""

    def __init__(
        self,
        engine: Engine,
        config: "SystemConfig",
        seed: int = 1,
        storage: Optional[MemoryStorage] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.engine = engine
        self.config = config
        #: Shared tracer/registry bundle; every channel controller reports
        #: into it, so its counters aggregate memory-wide.
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.mapper = AddressMapper(config.geometry)
        if storage is None and config.functional:
            storage = MemoryStorage(keep_pcc=config.geometry.has_pcc_chip)
        self.storage = storage
        self.controllers: List[MemoryController] = [
            make_controller(
                engine, config, channel, storage, seed, self.telemetry
            )
            for channel in range(config.geometry.n_channels)
        ]
        #: address -> owning controller; cores probe ``can_accept`` before
        #: every issue, and the footprint's addresses repeat heavily.
        self._route: dict = {}

    # ------------------------------------------------------------------
    def controller_for(self, address: int) -> MemoryController:
        """The channel controller owning ``address``."""
        decoded = self.mapper.decode(address)
        return self.controllers[decoded.channel]

    def can_accept(self, kind: RequestKind, address: int) -> bool:
        # controller_for with a routing memo: cores poll this before
        # every issue, usually for addresses seen before.
        controller = self._route.get(address)
        if controller is None:
            controller = self.controllers[self.mapper.decode(address).channel]
            self._route[address] = controller
        return controller.can_accept(kind)

    def submit(self, request: MemoryRequest) -> None:
        # The routing decode is the same decode the controller would
        # redo; hand it over so submit skips its own mapper lookup.
        decoded = self.mapper.decode(request.address)
        request.decoded = decoded
        self.controllers[decoded.channel].submit(request)

    def wait_for_space(self, kind: RequestKind, address: int, callback) -> None:
        self.controller_for(address).wait_for_space(kind, callback)

    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when every channel's queues are empty."""
        return all(controller.idle for controller in self.controllers)

    def aggregate_stats(self) -> MemoryStats:
        """Merged counters across all channels."""
        total = MemoryStats()
        for controller in self.controllers:
            total.merge(controller.stats)
        return total

    def _irlp_values(self) -> List[float]:
        """Every channel's window IRLPs, in controller then creation order."""
        values: List[float] = []
        for controller in self.controllers:
            values.extend(controller.irlp.values())
        return values

    def irlp_average(self) -> float:
        """Mean IRLP over all write windows of all channels."""
        values = self._irlp_values()
        return sum(values) / len(values) if values else 0.0

    def irlp_max(self) -> float:
        values = self._irlp_values()
        return max(values) if values else 0.0

    def write_service_busy_ticks(self) -> int:
        """Total write-window busy time, summed over channels."""
        return sum(
            controller.irlp.drain_busy_ticks()
            for controller in self.controllers
        )
