from __future__ import annotations

import os
from pathlib import Path

import pytest

import dnaswap
from dnaswap.encodings import BaseCode
from dnaswap.protocol import ProtocolConfig, assemble_pair, run_pair

# Child interpreters (``python -m dnaswap``) import the package under test too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(dnaswap.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def cfg() -> ProtocolConfig:
    return ProtocolConfig()


@pytest.fixture(scope="session")
def at_state(cfg):
    return assemble_pair(BaseCode("A"), BaseCode("T"), cfg)


@pytest.fixture(scope="session")
def gc_state(cfg):
    return assemble_pair(BaseCode("G"), BaseCode("C"), cfg)


@pytest.fixture(scope="session")
def at_ensemble(cfg):
    return run_pair(BaseCode("A"), BaseCode("T"), cfg)


@pytest.fixture(scope="session")
def gc_ensemble(cfg):
    return run_pair(BaseCode("G"), BaseCode("C"), cfg)
