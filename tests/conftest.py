import pytest
from hypothesis import HealthCheck, settings

from servas_sim import scenarios
from servas_sim.image import ImagePageType, build_image
from servas_sim.machine import Machine, PAGE_BYTES
from servas_sim.monitor import SecurityMonitor

settings.register_profile(
    "sim", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("sim")

CODE_FILL = bytes.fromhex("1300000093080000")
A_BASE = 0x4000_0000


def std_image(n_data: int = 1, fill: bytes = CODE_FILL):
    pages = [(0, "rx", ImagePageType.SHENCLAVE, fill * (PAGE_BYTES // len(fill)))]
    for j in range(n_data):
        pages.append((1 + j, "rw", ImagePageType.REGULAR, b""))
    return build_image(pages, entry_offset=0)


def spawn_enclave(machine, sm, image=None, base=A_BASE, ppn_start=0x100,
                  stack_pages=1, meta_ppn=0x200, thread_ppn=0x201, space="host",
                  ppn_overrides=None):
    """:func:`servas_sim.scenarios.spawn_enclave` with the standard world's
    defaults; ``machine`` is the one ``sm`` runs on."""
    assert sm.machine is machine
    return scenarios.spawn_enclave(sm, image or std_image(), space, base, ppn_start,
                                   stack_pages, meta_ppn, thread_ppn, ppn_overrides)


@pytest.fixture
def machine():
    return Machine(seed=7)


@pytest.fixture
def sm(machine):
    return SecurityMonitor(machine)


@pytest.fixture
def enclave(machine, sm):
    """(machine, sm, handle) with a standard 2-page enclave loaded."""
    handle = spawn_enclave(machine, sm)
    return machine, sm, handle
