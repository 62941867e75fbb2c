"""A process-backend farm runs the 2NC code search once, in its parent.

Every worker builds its sessions' receivers, and a 2NC receiver
derives its codes from a seeded search
(:func:`repro.codes.twonc._search_family`, memoised per process) unless
the packaged code book holds the family.  The farm, and a
process-backend gateway, build each distinct config's family before
forking, so the workers inherit the memo.  A spy on the search,
installed in the parent and so inherited by every worker, leaves one
marker file per search a worker runs.  The configs here use 36-chip
codes, which the book does not hold, so every miss is a real search.
"""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest

import repro.farm.farm as farm_mod
from repro.codes import twonc
from repro.farm import DecodeFarm, FarmConfig
from repro.gateway import Gateway

from tests.gateway.conftest import drive


@pytest.fixture
def unbooked_config(net_config):
    """The farm's session config with a code length the book lacks."""
    config = dataclasses.replace(net_config, code_length=36)
    for n_tags in (config.n_tags, 2):
        assert (n_tags, config.code_length) not in twonc._load_book()
    return config


@pytest.fixture
def worker_searches(tmp_path, monkeypatch):
    """The real search, and a directory that gains one file per search
    run outside this process."""
    parent = os.getpid()
    search = twonc._search_family

    def spy(size, length):
        misses = search.cache_info().misses
        codes = search(size, length)
        if os.getpid() != parent and search.cache_info().misses > misses:
            (tmp_path / f"{os.getpid()}-{size}-{length}").touch()
        return codes

    search.cache_clear()
    monkeypatch.setattr(twonc, "_search_family", spy)
    return SimpleNamespace(search=search, markers=tmp_path)


def _first_chunk(farm):
    """Returns once every worker has built its sessions."""
    for sid in farm.session_ids:
        farm.feed(sid, np.empty(0, dtype=np.complex128))
    farm.pump()


def _run_farm(config):
    farm = DecodeFarm.from_config(
        config, n_sessions=2, farm=FarmConfig(n_workers=2), backend="process"
    )
    try:
        _first_chunk(farm)
    finally:
        farm.close()


def test_farm_workers_inherit_the_search(unbooked_config, worker_searches):
    _run_farm(unbooked_config)
    assert worker_searches.search.cache_info().misses == 1
    assert sorted(p.name for p in worker_searches.markers.iterdir()) == []


def test_spy_sees_each_worker_search_without_the_parent_search(
    unbooked_config, worker_searches, monkeypatch
):
    monkeypatch.setattr(farm_mod, "build_code_families", lambda configs: None)
    _run_farm(unbooked_config)
    assert worker_searches.search.cache_info().misses == 0
    assert len(list(worker_searches.markers.iterdir())) == 2


@pytest.mark.parametrize("first", ["default", "other"])
def test_gateway_workers_inherit_the_search(unbooked_config, worker_searches, first):
    """Also when the first stream, which forks the farm, opens with
    another config: the gateway's own config was searched before."""
    other = dataclasses.replace(unbooked_config, n_tags=2)
    gw = Gateway.from_config(unbooked_config, farm=FarmConfig(n_workers=2), backend="process")
    try:

        async def open_streams():
            await gw.open_stream(config=other if first == "other" else None)
            for _ in range(3):
                await gw.open_stream()

        drive(open_streams())
        _first_chunk(gw.farm)
    finally:
        gw.close()
    assert worker_searches.search.cache_info().misses == (2 if first == "other" else 1)
    assert sorted(p.name for p in worker_searches.markers.iterdir()) == []
