"""The farm's fork boundary, checked at run time.

:class:`~repro.farm.DecodeFarm` forks its workers, so every ``repro``
module that ``repro.farm.worker`` imports is copied into each worker.
Three kinds of module global go wrong across that copy: one holding an
OS handle (parent and workers share, or fight over, one descriptor),
one holding an RNG (every worker replays the same stream), and one
that the decode path changes (each process changes its own copy, and
parent and workers silently disagree).

The first two are checked on the import state of a fresh interpreter
that imports ``repro.farm.worker``.  The third is checked by
fingerprinting every global of that import closure, and every data
attribute of a class defined there, around an inline farm run with a
migration and an inline gateway soak with a worker drain: identity,
``len``, hash, an ``lru_cache``'s size and a digest of the contents
(the pickle, or the ``repr`` of what does not pickle).  Only the memos
in :data:`FORK_SAFE` may change; they are emptied before the runs and
each must refill, so an entry that no run uses any more fails too.  The
check sees only the code paths these runs take.  The planted-hazard
tests show that it catches each kind and names the module and the
global.

No ``repro`` import at the top: the fresh interpreter imports this
module's helpers without widening the closure.
"""

import hashlib
import importlib
import io
import json
import os
import pickle
import random
import re
import socket
import subprocess
import sys
import threading
import types
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest

#: The globals of the closure that the decode paths may change, and why
#: each is fork-safe.
FORK_SAFE: Dict[str, str] = {
    "repro.utils.correlation_batch._BANK_CACHE": (
        "content-keyed memo of immutable template banks: a worker that "
        "misses rebuilds the very same bank"
    ),
    "repro.utils.correlation_batch._next_fast_len": "lru_cache of a pure function of one integer",
    "repro.codes.twonc._load_book": "lru_cache of the packaged, read-only code book",
    "repro.codes.twonc._search_family": (
        "lru_cache of a seeded, deterministic code search; the farm runs "
        "it in the parent before forking (tests/farm/test_search_once.py)"
    ),
}

_PROBE = """\
import json, sys
import repro.farm.worker
names = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
from tests.farm.test_fork_boundary import import_hazards
print(json.dumps({"closure": names, "hazards": import_hazards(names)}))
"""


def _hazard_types():
    """``(handle types, RNG types)``; ``Tracer`` counts only once its
    module is loaded, since no global can hold one before."""
    import multiprocessing.connection
    import multiprocessing.pool
    import multiprocessing.queues
    import multiprocessing.synchronize
    from multiprocessing.shared_memory import SharedMemory

    handles = [
        io.IOBase, SharedMemory, multiprocessing.queues.Queue,
        multiprocessing.queues.SimpleQueue, multiprocessing.synchronize.SemLock,
        multiprocessing.connection.Connection, multiprocessing.pool.Pool,
        type(threading.Lock()), type(threading.RLock()), subprocess.Popen, socket.socket,
    ]
    tracer = sys.modules.get("repro.obs.tracer")
    if tracer is not None:
        handles.append(tracer.Tracer)
    return tuple(handles), (np.random.Generator, np.random.RandomState, np.random.BitGenerator, random.Random)


_CODE = (
    types.ModuleType, types.FunctionType, type, staticmethod, classmethod, property,
    types.MemberDescriptorType, types.GetSetDescriptorType,
)


def _globals(names: Sequence[str]):
    """``("module.global", value)`` for every data global of *names*,
    and ``("module.Class.attr", value)`` for every data attribute of a
    class defined there: dunders, modules, functions, classes and
    descriptors are code, not state."""
    for name in names:
        for attr, value in vars(importlib.import_module(name)).items():
            if attr.startswith("__"):
                continue
            if isinstance(value, type) and value.__module__ == name:
                for key, item in vars(value).items():
                    if not key.startswith("__") and not isinstance(item, _CODE):
                        yield f"{name}.{attr}.{key}", item
            elif not isinstance(value, _CODE):
                yield f"{name}.{attr}", value


def import_hazards(names: Sequence[str]) -> List[str]:
    """Each global of *names* that is, or directly holds, an OS handle
    or an RNG, as ``"module.global: kind type"``."""
    handles, rngs = _hazard_types()
    found = []
    for where, value in _globals(names):
        items = [value]
        if isinstance(value, dict):
            items += list(value.values())
        elif isinstance(value, (list, tuple, set, frozenset)):
            items += list(value)
        for item in items:
            if isinstance(item, handles):
                found.append(f"{where}: handle {type(item).__name__}")
            elif isinstance(item, rngs):
                found.append(f"{where}: RNG {type(item).__name__}")
    return found


def _content(value) -> str:
    """A digest of *value*'s contents: its pickle, or its ``repr``
    where it does not pickle."""
    try:
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        data = repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def _fingerprint(value, content: bool) -> tuple:
    """The value itself (kept alive, so identity stays meaningful),
    its ``len``, its hash, its ``lru_cache`` size and, with *content*,
    a digest of its contents, where defined."""
    try:
        size = len(value)
    except TypeError:
        size = None
    try:
        digest = hash(value)
    except TypeError:
        digest = None
    info = getattr(value, "cache_info", None)
    return value, size, digest, info().currsize if callable(info) else None, _content(value) if content else None


def snapshot(names: Sequence[str]) -> Dict[str, tuple]:
    """Every global's fingerprint; the memos of :data:`FORK_SAFE` are
    large and may change, so their contents are not digested."""
    return {where: _fingerprint(value, where not in FORK_SAFE) for where, value in _globals(names)}


def clear_fork_safe() -> None:
    """Empty every memo of :data:`FORK_SAFE`, so a run that uses one
    changes it."""
    for where in FORK_SAFE:
        module, attr = where.rsplit(".", 1)
        memo = getattr(importlib.import_module(module), attr)
        (memo.cache_clear if hasattr(memo, "cache_clear") else memo.clear)()


def check_imports(names: Sequence[str]) -> None:
    hazards = import_hazards(names)
    assert not hazards, "fork-unsafe globals in the worker's import closure:\n" + "\n".join(hazards)


def check_runs(names: Sequence[str], run: Callable[[], None]) -> List[str]:
    """Run *run*; fail on a global added, removed, rebound or changed in
    size, hash, cache size or contents outside :data:`FORK_SAFE`.
    Returns every changed global."""
    before = snapshot(names)
    assert set(FORK_SAFE) <= set(before), "an allow-list entry names no global"
    run()
    after = snapshot(names)
    changed = [
        where
        for where in sorted(before.keys() | after.keys())
        if where not in before or where not in after
        or before[where][0] is not after[where][0] or before[where][1:] != after[where][1:]
    ]
    unsafe = [where for where in changed if where not in FORK_SAFE]
    assert not unsafe, "the decode path changed module state that forked workers do not share:\n" + "\n".join(unsafe)
    return changed


def run_inline_farm(config, chunks, chunk, migrate: bool = True) -> None:
    """Four sessions on two inline workers; with *migrate*, session 1
    moves to worker 0 halfway through."""
    from repro.farm import DecodeFarm, FarmConfig

    farm = DecodeFarm.from_config(
        config, n_sessions=4, farm=FarmConfig(n_workers=2, ring_slot_samples=chunk), backend="inline"
    )
    try:
        for k, piece in enumerate(chunks):
            if migrate and k == len(chunks) // 2:
                farm.migrate(1, worker=0)
            for sid in farm.session_ids:
                farm.feed(sid, piece)
            farm.pump()
        farm.finish()
    finally:
        farm.close()
    assert any(farm.frames.values())


@pytest.fixture(scope="module")
def worker_probe():
    """``{"closure": [...], "hazards": [...]}`` from a fresh interpreter
    that imports ``repro.farm.worker``."""
    import repro

    root = Path(__file__).resolve().parents[2]
    path = os.pathsep.join([str(Path(repro.__file__).resolve().parents[1]), str(root)])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=dict(os.environ, PYTHONPATH=path),
        cwd=root, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def closure(worker_probe) -> List[str]:
    assert "repro.farm.worker" in worker_probe["closure"]
    return worker_probe["closure"]


def test_worker_import_closure_holds_no_handle_or_rng(worker_probe, closure):
    assert worker_probe["hazards"] == []


def test_farm_and_gateway_change_only_fork_safe_globals(closure, net_config, soak_capture):
    from repro.gateway.soak import GatewaySoakConfig, run_gateway_soak

    _buffer, chunks, chunk = soak_capture

    def run():
        run_inline_farm(net_config, chunks, chunk)
        result = run_gateway_soak(GatewaySoakConfig(n_streams=6, n_rounds=6, migrate_round=3))
        assert result.ok and result.moved_sessions

    clear_fork_safe()
    assert check_runs(closure, run) == sorted(FORK_SAFE), "an allow-list entry that no run changes is stale"


# Planted hazards: each check fails and names the module and the global.

PLANTED = "repro.farm._planted"


@pytest.fixture
def plant(monkeypatch):
    """Build a module from source under :data:`PLANTED` in
    ``sys.modules``; its open files are closed afterwards."""
    made = []

    def make(source: str) -> types.ModuleType:
        module = types.ModuleType(PLANTED)
        exec(source, module.__dict__)
        monkeypatch.setitem(sys.modules, PLANTED, module)
        made.append(module)
        return module

    yield make
    for module in made:
        for value in vars(module).values():
            if isinstance(value, io.IOBase):
                value.close()


@pytest.fixture
def run_planted(closure, plant, monkeypatch, net_config, soak_capture):
    """``run(setup, change)``: plant *setup* plus a ``remember(sid)``
    doing *change*, call it on every chunk a farm worker ingests, and
    :func:`check_runs` a short inline farm run."""
    from repro.farm.worker import WorkerCore

    _buffer, chunks, chunk = soak_capture
    ingest = WorkerCore.ingest

    def run(setup: str, change: str) -> List[str]:
        state = plant(f"{setup}\n\ndef remember(sid):\n    {change}\n")

        def planted_ingest(self, session_id, piece):
            state.remember(session_id)
            ingest(self, session_id, piece)

        monkeypatch.setattr(WorkerCore, "ingest", planted_ingest)
        return check_runs(closure + [PLANTED], lambda: run_inline_farm(net_config, chunks[:4], chunk, migrate=False))

    return run


# A module source whose import leaves a hazard, and how the check names it.
IMPORT_HAZARDS = {
    "handle": ("_LOG = open({log!r}, 'a')\n_SLOT_BYTES = 4096", "_LOG: handle"),
    "rng": ("from numpy.random import default_rng\n_RNG = default_rng()", "_RNG: RNG Generator"),
}


@pytest.mark.parametrize("hazard", IMPORT_HAZARDS.values(), ids=IMPORT_HAZARDS.keys())
def test_planted_import_hazard_is_named(closure, plant, tmp_path, hazard):
    source, named = hazard
    plant(source.format(log=str(tmp_path / "decode.log")))
    with pytest.raises(AssertionError, match=re.escape(f"{PLANTED}.{named}")):
        check_imports(closure + [PLANTED])


# Each a change that the parent never sees once the worker has forked.
MUTATIONS = {
    "set_grows": ("_SEEN = set()", "_SEEN.add(sid)", "_SEEN"),
    "dict_key_overwritten": ("_TABLE = {'last': -1}", "_TABLE['last'] = sid", "_TABLE"),
    "array_written": ("import numpy as np\n_ACC = np.zeros(4)", "_ACC[sid % 4] += 1", "_ACC"),
    "object_attribute_set": ("import types\n_STATE = types.SimpleNamespace(last=-1)", "_STATE.last = sid", "_STATE"),
    "class_attribute_set": ("class Pump:\n    last = -1", "Pump.last = sid", "Pump.last"),
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_planted_mutation_on_the_worker_path_is_named(run_planted, mutation):
    setup, change, name = mutation
    with pytest.raises(AssertionError, match=rf"(?m){re.escape(f'{PLANTED}.{name}')}$"):
        run_planted(setup, change)


# Changes on the worker path that touch no module state.
FORK_SAFE_CHANGES = {
    "per_call_rng": ("from numpy.random import default_rng", "default_rng(sid).random()"),
    "local_shadow": ("_SEEN = set()", "_SEEN = {sid}  # a local, not the module global"),
}


@pytest.mark.parametrize("change", FORK_SAFE_CHANGES.values(), ids=FORK_SAFE_CHANGES.keys())
def test_per_call_rng_and_local_shadow_pass(closure, run_planted, change):
    changed = run_planted(*change)
    check_imports(closure + [PLANTED])
    assert not any(where.startswith(PLANTED) for where in changed)
