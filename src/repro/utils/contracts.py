"""Shape/dtype contracts for array-crunching entry points.

The receiver/SIC/correlator/channel hot paths all assume specific
buffer shapes and dtypes (1-D ``complex128`` sample streams, matched
template lengths), but numpy upcasts and broadcasts silently.
:func:`array_contract` makes those assumptions *declared*:

- at decoration time, every spec is parsed and a narrow dtype
  (``complex64``/``float32`` or an alias such as ``c8``/``single``)
  raises ``ValueError``: the sample stream has one dtype,
  ``complex128``, so a contract cannot declare a second one;
- at runtime, with ``REPRO_DEBUG=1`` in the environment (or after
  :func:`enable_contracts`), every call checks the declared arguments
  and raises :class:`ArrayContractError` on a violation.  Dimension
  *symbols* are cross-checked within one call: two arguments declared
  ``"(n) complex128"`` must agree on ``n``.

Contract spec grammar::

    "(dim[, dim...]) dtype"     e.g. "(n_tags, n_chips) complex128"
    "() dtype"                  scalar (0-d) array
    dtype alone                 any shape, that dtype

where each *dim* is either an integer literal or a symbol name, and
*dtype* is a numpy dtype name (``complex128``, ``float64``, ``uint8``,
...) or ``any`` (shape-only check).  Use the keyword ``returns=`` for
the return value.

The disabled path costs one attribute load and a truthiness test per
call, so contracts are safe on hot paths.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

__all__ = [
    "ArrayContractError",
    "ArraySpec",
    "array_contract",
    "contracts_enabled",
    "enable_contracts",
]

F = TypeVar("F", bound=Callable[..., Any])

#: Runtime checking switch; initialised from ``REPRO_DEBUG=1`` at
#: import and togglable from tests via :func:`enable_contracts`.
_ENABLED: bool = os.environ.get("REPRO_DEBUG", "") == "1"

_SPEC_RE = re.compile(r"^\s*(?:\(\s*(?P<dims>[^)]*)\)\s*)?(?P<dtype>[A-Za-z_][A-Za-z0-9_]*)\s*$")

#: Single-precision dtypes no contract may declare; ``np.dtype`` maps
#: aliases such as ``c8`` and ``single`` onto these.
_NARROW = (np.dtype(np.complex64), np.dtype(np.float32))


class ArrayContractError(TypeError):
    """A call violated an :func:`array_contract` declaration."""


def contracts_enabled() -> bool:
    """Whether runtime contract checking is currently on."""
    return _ENABLED


def enable_contracts(on: bool = True) -> bool:
    """Turn runtime checking on/off; returns the previous state.

    ``REPRO_DEBUG=1`` sets the initial state; tests use this to
    exercise the checked path without re-importing the world.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


@dataclass(frozen=True)
class ArraySpec:
    """One parsed contract: optional dims plus a dtype name."""

    dims: Optional[Tuple[str, ...]]
    dtype: str
    raw: str

    @classmethod
    def parse(cls, spec: str) -> "ArraySpec":
        m = _SPEC_RE.match(spec)
        if m is None:
            raise ValueError(f"unparseable array contract {spec!r}")
        dims_text = m.group("dims")
        if dims_text is None:
            dims: Optional[Tuple[str, ...]] = None
        else:
            dims = tuple(d.strip() for d in dims_text.split(",") if d.strip())
        dtype = m.group("dtype")
        if dtype != "any" and np.dtype(dtype) in _NARROW:  # TypeError on unknown names
            raise ValueError(
                f"array contract {spec!r} declares single-precision "
                f"{np.dtype(dtype)}; use complex128 or float64"
            )
        return cls(dims=dims, dtype=dtype, raw=spec)

    def check(self, name: str, value: Any, bindings: Dict[str, int], where: str) -> None:
        """Raise :class:`ArrayContractError` unless *value* satisfies
        this spec; records/uses dimension-symbol *bindings*."""
        if value is None:
            return
        if not isinstance(value, np.ndarray):
            raise ArrayContractError(
                f"{where}: {name} must be an ndarray per contract {self.raw!r}, "
                f"got {type(value).__name__}"
            )
        if self.dtype != "any" and value.dtype != np.dtype(self.dtype):
            raise ArrayContractError(
                f"{where}: {name} has dtype {value.dtype}, contract {self.raw!r} "
                f"requires {self.dtype}"
            )
        if self.dims is None:
            return
        if value.ndim != len(self.dims):
            raise ArrayContractError(
                f"{where}: {name} has rank {value.ndim}, contract {self.raw!r} "
                f"requires rank {len(self.dims)}"
            )
        for dim, size in zip(self.dims, value.shape):
            if dim.isdigit():
                if int(dim) != size:
                    raise ArrayContractError(
                        f"{where}: {name} dimension {dim} has size {size}"
                    )
                continue
            bound = bindings.setdefault(dim, int(size))
            if bound != size:
                raise ArrayContractError(
                    f"{where}: {name} binds {dim}={size} but an earlier "
                    f"argument bound {dim}={bound}"
                )


def array_contract(returns: Optional[str] = None, **params: str) -> Callable[[F], F]:
    """Declare shape/dtype contracts on a function's array arguments.

    Example::

        @array_contract(x="(n) complex128", template="(m) complex128")
        def sliding_correlation(x, template): ...

    Every spec is parsed here, so a malformed spec or a narrow dtype
    raises at import, before any call.  Runtime checking only
    happens while :func:`contracts_enabled` is true.
    """
    specs = {name: ArraySpec.parse(spec) for name, spec in params.items()}
    return_spec = ArraySpec.parse(returns) if returns is not None else None

    def decorate(fn: F) -> F:
        signature = inspect.signature(fn)
        unknown = set(specs) - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"{fn.__qualname__}: contract names unknown parameters {sorted(unknown)}"
            )

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _ENABLED:
                return fn(*args, **kwargs)
            where = fn.__qualname__
            bindings: Dict[str, int] = {}
            bound = signature.bind_partial(*args, **kwargs)
            for name, spec in specs.items():
                if name in bound.arguments:
                    spec.check(name, bound.arguments[name], bindings, where)
            result = fn(*args, **kwargs)
            if return_spec is not None:
                return_spec.check("return value", result, bindings, where)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate
