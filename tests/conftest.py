"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir.builder import LoopBuilder
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine


@pytest.fixture
def ideal16():
    return ideal_machine()


@pytest.fixture(params=[(2, CopyModel.EMBEDDED), (2, CopyModel.COPY_UNIT),
                        (4, CopyModel.EMBEDDED), (4, CopyModel.COPY_UNIT),
                        (8, CopyModel.EMBEDDED), (8, CopyModel.COPY_UNIT)],
                ids=["2emb", "2cu", "4emb", "4cu", "8emb", "8cu"])
def clustered_machine(request):
    n, model = request.param
    return paper_machine(n, model)


def store_record(disk, digest: str):
    """Where ``digest``'s record sits in its loop file: (path, start, end)."""
    needle = b'{"digest":"' + digest.encode() + b'"'
    for path in disk.loop_files():
        data = path.read_bytes()
        start = data.find(needle)
        if start >= 0:
            end = data.find(b"\n\n", start)
            return path, start, len(data) if end < 0 else end + 1
    raise KeyError(digest)


def build_daxpy():
    b = LoopBuilder("daxpy")
    b.fload("f1", "x")
    b.fload("f2", "y")
    b.fmul("f3", "f1", "fa")
    b.fadd("f4", "f3", "f2")
    b.fstore("f4", "y")
    b.live_in("fa")
    return b.build()


def build_dot():
    b = LoopBuilder("dot")
    b.fload("f1", "x")
    b.fload("f2", "y")
    b.fmul("f3", "f1", "f2")
    b.fadd("f4", "f4", "f3")
    b.live_out("f4")
    return b.build()


def build_mem_recurrence():
    """x[i] = x[i-1] * b[i]: store->load memory recurrence."""
    b = LoopBuilder("memrec")
    b.fload("f1", "x", offset=-1)
    b.fload("f2", "b")
    b.fmul("f3", "f1", "f2")
    b.fstore("f3", "x")
    return b.build()


@pytest.fixture
def daxpy_loop():
    return build_daxpy()


@pytest.fixture
def dot_loop():
    return build_dot()


@pytest.fixture
def memrec_loop():
    return build_mem_recurrence()
