"""Rule modules of ``repro lint``; importing this package registers all.

One module per rule keeps each check reviewable in isolation:

========  ===============  ==============================================
Rule      Module           Checks
========  ===============  ==============================================
LNT001    ``rng``          no unseeded/global RNG outside tests
LNT003    ``floateq``      no ==/!= against float literals
LNT004    ``dtype``        no widening of @array_contract buffers
LNT005    ``api``          __all__ and documented factories are real
LNT006    ``excepts``      no blanket exception swallowing
LNT007    ``forksafety``   no fork-unsafe module state in worker closure
LNT012    ``dtypeflow``    contracted buffers stay narrow across calls
========  ===============  ==============================================

LNT001-LNT006 are per-file AST rules; LNT007 and LNT012 run in the
project-wide ``finalize`` phase on the cross-module project index
(:mod:`repro.lint.engine`).  Numbers missing from the table are
retired, not reassigned: the farm API itself enforces the ``ShmRing``
slot lifecycle and timed queue waits, the session checkpoint schema is
declared once as dataclasses in :mod:`repro.receiver.session`, and
metric names are typed values of :mod:`repro.obs.taxonomy` that the
enabled tracer type-checks.
"""

from repro.lint.rules import (
    api,
    dtype,
    dtypeflow,
    excepts,
    floateq,
    forksafety,
    rng,
)

__all__ = [
    "api",
    "dtype",
    "dtypeflow",
    "excepts",
    "floateq",
    "forksafety",
    "rng",
]
