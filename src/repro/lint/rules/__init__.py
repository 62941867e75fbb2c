"""Rule modules of ``repro lint``; importing this package registers all.

One module per rule keeps each check reviewable in isolation:

========  ===============  ==============================================
Rule      Module           Checks
========  ===============  ==============================================
LNT001    ``rng``          no unseeded/global RNG outside tests
LNT003    ``floateq``      no ==/!= against float literals
LNT005    ``api``          __all__ and documented factories are real
LNT006    ``excepts``      no blanket exception swallowing
========  ===============  ==============================================

Every rule is a per-file AST pass; LNT005 also cross-checks the docs
in the project-wide ``finalize`` phase.  Numbers missing from the
table are retired, not reassigned: the farm API itself enforces the
``ShmRing`` slot lifecycle and timed queue waits, the session
checkpoint schema is declared once as dataclasses in
:mod:`repro.receiver.session`, metric names are typed values of
:mod:`repro.obs.taxonomy` that the enabled tracer type-checks,
:func:`repro.utils.contracts.array_contract` refuses a
single-precision dtype at import, so no contracted buffer can be
narrow enough to widen, and the farm's fork boundary (LNT007) is
checked at run time by ``tests/farm/test_fork_boundary.py``.
"""

from repro.lint.rules import (
    api,
    excepts,
    floateq,
    rng,
)

__all__ = [
    "api",
    "excepts",
    "floateq",
    "rng",
]
