"""The per-epoch prefetch hooks are invisible in simulated results.

Functional runs hand each generated trace epoch to a hook that
batch-materialises cold lines ahead of use: ``_epoch_prefetcher`` on the
direct path, ``DramCacheFrontEnd.make_epoch_hook`` behind the tier.  Both
hooks skip any ``MemoryStorage`` subclass, so running the same
simulation over a plain store and over a trivial subclass turns the hook
on and off with nothing else changed.  The results must be identical;
only the set of materialised lines may differ.
"""

import pytest

from repro.core.systems import make_front_end, make_system
from repro.memory.storage import MemoryStorage
from repro.sim.results_io import result_to_dict
from repro.sim.simulator import SimulationParams, simulate


class _UnhookedStorage(MemoryStorage):
    """Identical storage the epoch hooks decline to prefetch into."""


def _run(storage, **params):
    result = simulate(
        make_system("rwow-rde", functional=True),
        "canneal",
        SimulationParams(target_requests=1_500, seed=3, n_cores=4, **params),
        storage=storage,
    )
    return result_to_dict(result)


@pytest.mark.parametrize(
    "params",
    [{}, {"front_end": make_front_end("dram", capacity_mb=1)}],
    ids=["direct", "tier-1mib"],
)
def test_epoch_hook_does_not_change_results(params):
    hooked = MemoryStorage()
    unhooked = _UnhookedStorage()
    assert _run(hooked, **params) == _run(unhooked, **params)
    # The hook ran: it materialised lines ahead of (and beyond) use, and
    # every line the run did touch holds the same bits either way.
    assert len(hooked._lines) > len(unhooked._lines)
    for address, line in unhooked._lines.items():
        assert hooked._lines[address] == line
