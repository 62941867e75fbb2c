"""Tests for runtime array contracts (repro.utils.contracts)."""

import re

import numpy as np
import pytest

from repro.utils.contracts import (
    ArrayContractError,
    ArraySpec,
    array_contract,
    contracts_enabled,
    enable_contracts,
)


@pytest.fixture
def checked():
    """Enable runtime contract checking for the duration of one test."""
    previous = enable_contracts(True)
    yield
    enable_contracts(previous)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def test_parse_dims_and_dtype():
    spec = ArraySpec.parse("(n_tags, n_chips) complex128")
    assert spec.dims == ("n_tags", "n_chips")
    assert spec.dtype == "complex128"


def test_parse_scalar_and_bare_dtype():
    assert ArraySpec.parse("() float64").dims == ()
    bare = ArraySpec.parse("uint8")
    assert bare.dims is None
    assert bare.dtype == "uint8"


def test_parse_any_dtype_and_integer_dims():
    spec = ArraySpec.parse("(3, n) any")
    assert spec.dims == ("3", "n")
    assert spec.dtype == "any"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        ArraySpec.parse("(n] complex128")
    with pytest.raises(TypeError):
        ArraySpec.parse("(n) notadtype")


# ----------------------------------------------------------------------
# Decorator wiring
# ----------------------------------------------------------------------


def test_unknown_parameter_rejected_at_decoration_time():
    with pytest.raises(ValueError, match="nope"):

        @array_contract(nope="(n) float64")
        def f(x):
            return x


@pytest.mark.parametrize("dtype", ["complex64", "float32", "c8", "f4", "single", "csingle"])
@pytest.mark.parametrize("where", ["param", "returns"])
def test_narrow_dtype_refused_at_decoration_time(dtype, where):
    spec = f"(n) {dtype}"
    kwargs = {"x": spec} if where == "param" else {"returns": spec}
    with pytest.raises(ValueError, match=re.escape(repr(spec))):

        @array_contract(**kwargs)
        def f(x):
            return x


@pytest.mark.parametrize("dtype", ["complex128", "float64", "uint8", "any"])
def test_wide_dtypes_accepted(dtype):
    @array_contract(x=f"(n) {dtype}", returns=f"(n) {dtype}")
    def f(x):
        return x

    assert f(None) is None


def test_disabled_by_default_is_a_no_op():
    assert not contracts_enabled()

    @array_contract(x="(n) complex128")
    def f(x):
        return x

    # Wrong dtype passes silently while checking is off.
    assert f(np.zeros(3, dtype=np.float32)) is not None


# ----------------------------------------------------------------------
# Runtime checking
# ----------------------------------------------------------------------


def test_dtype_violation_raises(checked):
    @array_contract(x="(n) complex128")
    def f(x):
        return x

    f(np.zeros(4, dtype=np.complex128))
    with pytest.raises(ArrayContractError, match="dtype"):
        f(np.zeros(4, dtype=np.complex64))


def test_rank_violation_raises(checked):
    @array_contract(x="(n) float64")
    def f(x):
        return x

    with pytest.raises(ArrayContractError, match="rank"):
        f(np.zeros((2, 2)))


def test_non_ndarray_raises(checked):
    @array_contract(x="(n) float64")
    def f(x):
        return x

    with pytest.raises(ArrayContractError, match="ndarray"):
        f([1.0, 2.0])


def test_none_arguments_are_skipped(checked):
    @array_contract(x="(n) float64")
    def f(x=None):
        return x

    assert f() is None
    assert f(None) is None


def test_dim_symbols_cross_bind_between_arguments(checked):
    @array_contract(x="(n) float64", y="(n) float64")
    def f(x, y):
        return x + y

    f(np.zeros(3), np.zeros(3))
    with pytest.raises(ArrayContractError, match="n="):
        f(np.zeros(3), np.zeros(4))


def test_integer_dim_literal_enforced(checked):
    @array_contract(x="(2, n) float64")
    def f(x):
        return x

    f(np.zeros((2, 5)))
    with pytest.raises(ArrayContractError):
        f(np.zeros((3, 5)))


def test_return_contract_checked_and_shares_bindings(checked):
    @array_contract(x="(n) float64", returns="(n) float64")
    def truncating(x):
        return x[:-1]

    with pytest.raises(ArrayContractError, match="return value"):
        truncating(np.zeros(4))


def test_enable_contracts_returns_previous_state():
    previous = enable_contracts(True)
    try:
        assert contracts_enabled()
        assert enable_contracts(False) is True
        assert not contracts_enabled()
    finally:
        enable_contracts(previous)


def test_noise_model_sample_passes_under_contracts(checked):
    from repro.channel.noise import NoiseModel

    noise = NoiseModel()
    out = noise.sample(64, rng=np.random.default_rng(0))
    assert out.dtype == np.complex128
    assert out.shape == (64,)
