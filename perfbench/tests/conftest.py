"""Shared fixtures: a k = 5 store built once per session.

Run with ``python3 -m pytest perfbench/tests`` from the checkout root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT)]


@pytest.fixture(scope="session")
def ref(tmp_path_factory):
    from perfbench.oracle import Reference

    return Reference(tmp_path_factory.mktemp("store"))
