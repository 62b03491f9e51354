"""Run a test module's classes on both symmetric-crypto paths."""

from __future__ import annotations

import pytest
from hypothesis import given


def _own_copy(method):
    # Hypothesis rejects one @given test run with instances of two classes
    # (HealthCheck.differing_executors), so a copied class gets its own
    # @given wrapper around the same test body, strategies and settings.
    handle = getattr(method, "hypothesis", None)
    if handle is None:
        return method
    return given(**handle._given_kwargs)(handle.inner_test)


def pure_variants(namespace: dict) -> dict[str, type]:
    """``<Name>Pure``: every ``Test*`` class in ``namespace`` again, under the
    ``pure_crypto`` fixture.

    A module ends with ``globals().update(pure_variants(globals()))``; its
    original classes keep the path the platform provides (libcrypto when
    present), the copies run the pure-Python reference.  Classes already
    pinned to ``pure_crypto`` are not copied.
    """
    on_pure = pytest.mark.usefixtures("pure_crypto")
    variants = {}
    for name, cls in list(namespace.items()):
        if not (name.startswith("Test") and isinstance(cls, type)):
            continue
        if any("pure_crypto" in mark.args for mark in getattr(cls, "pytestmark", [])):
            continue
        body = {attr: _own_copy(value) for attr, value in vars(cls).items() if attr.startswith("test")}
        body["__module__"] = namespace["__name__"]
        variants[f"{name}Pure"] = on_pure(type(f"{name}Pure", (cls,), body))
    return variants
