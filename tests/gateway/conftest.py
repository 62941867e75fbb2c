"""Shared fixtures for the gateway suite.

Everything runs on a virtual clock: admission, throttling, retries
and the real-time factor all derive from the injected ``clock`` /
``sleep`` pair, so each test is a pure function of the traffic it
submits.
"""

import asyncio

import pytest

from repro.sim.experiments.soak import SoakConfig, soak_phy_config


class VirtualClock:
    """A manually-advanced clock with a matching async sleep."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    async def sleep(self, dt: float) -> None:
        self.now += dt

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture()
def vclock():
    return VirtualClock()


@pytest.fixture(scope="session")
def phy_config():
    """A small PHY config; admission tests never decode real frames."""
    return soak_phy_config(SoakConfig(n_tags=2, seed=7))


def drive(coro):
    """Run one async test body to completion."""
    return asyncio.run(coro)
