"""Parser for the textual loop format produced by :mod:`repro.ir.printer`.

Grammar (line-oriented)::

    loop NAME [depth=K] [trip=K]
      [live_in  rA, rB, ...]
      [live_out rA, rB, ...]
      OPCODE operands...
      ...
    end

Operand syntax: registers are ``r<name>``/``f<name>`` identifiers (``f``
prefix means float), integer and float literals are immediates, and the
final operand of a load/store is a memory reference — either a bare scalar
name (``xpos``) or an array form (``A[i]``, ``A[i+1]``, ``A[i-2]``).
An optional trailing ``@cK`` pins the operation to cluster ``K``.

The parser exists so tests and examples can state IR fixtures compactly
and so dumps round-trip; it is not a general assembler.
"""

from __future__ import annotations

import re

from repro.ir.block import Loop
from repro.ir.builder import LoopBuilder
from repro.ir.operations import Opcode
from repro.ir.types import DataType, Immediate, MemRef

_HEADER_RE = re.compile(r"^loop\s+(\S+)((?:\s+\w+=\S+)*)\s*$")
_KV_RE = re.compile(r"(\w+)=(\S+)")
_ARRAY_RE = re.compile(r"^([A-Za-z_]\w*)\[(\d+)?i(?:([+-])(\d+))?\]$")
# a scalar may carry a register's suffixes: "__spill_f3.rl11_1" is the
# slot of a spill reload register spilled again in a later round
_SCALAR_RE = re.compile(r"^[A-Za-z_]\w*(?:\.\w+)*$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
# Register names may carry dot-separated suffixes minted by compiler
# rewrites ("fa.c0" for a cluster copy, "r3.rl7_0" for a spill reload),
# so that partitioned/spilled loops round-trip through the printer too —
# the artifact store rehydrates stored compilations through this parser.
_REG_RE = re.compile(
    r"^[rf][A-Za-z0-9_]*\d[A-Za-z0-9_]*(?:\.[A-Za-z0-9_]+)*$"
    r"|^[rf][A-Za-z0-9_]+(?:\.[A-Za-z0-9_]+)*$"
)


class IRParseError(ValueError):
    """Raised on malformed textual IR."""


def _parse_memref(token: str) -> MemRef:
    m = _ARRAY_RE.match(token)
    if m:
        name, stride_digits, sign, digits = m.groups()
        offset = 0
        if digits is not None:
            offset = int(digits) * (1 if sign == "+" else -1)
        stride = int(stride_digits) if stride_digits else 1
        return MemRef(name, offset, scalar=False, stride=stride)
    if _SCALAR_RE.match(token):
        return MemRef(token, 0, scalar=True)
    raise IRParseError(f"bad memory reference: {token!r}")


def _parse_operand(builder: LoopBuilder, token: str):
    if token.startswith(("r", "f")) and _REG_RE.match(token) and not _FLOAT_RE.match(token):
        return builder.reg(token)
    if _INT_RE.match(token):
        return Immediate(int(token), DataType.INT)
    if _FLOAT_RE.match(token) and ("." in token or "e" in token or "E" in token):
        return Immediate(float(token), DataType.FLOAT)
    raise IRParseError(f"bad operand: {token!r}")


def parse_loop(text: str) -> Loop:
    """Parse ``text`` into a verified :class:`~repro.ir.block.Loop`."""
    lines = [ln.strip() for ln in text.strip().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise IRParseError("empty input")

    header = _HEADER_RE.match(lines[0])
    if not header:
        raise IRParseError(f"bad loop header: {lines[0]!r}")
    name, kvs = header.group(1), dict(_KV_RE.findall(header.group(2) or ""))
    depth = int(kvs.get("depth", "1"))
    trip = int(kvs.get("trip", "8"))

    if lines[-1] != "end":
        raise IRParseError("loop must terminate with 'end'")

    builder = LoopBuilder(name, depth=depth, trip_count_hint=trip)
    live_in_names: list[str] = []
    live_out_names: list[str] = []

    for raw in lines[1:-1]:
        if raw.startswith("live_in"):
            live_in_names.extend(t.strip() for t in raw[len("live_in") :].split(",") if t.strip())
            continue
        if raw.startswith("live_out"):
            live_out_names.extend(t.strip() for t in raw[len("live_out") :].split(",") if t.strip())
            continue
        _parse_op_line(builder, raw)

    # live-ins must be registered before verification runs in build()
    for nm in live_in_names:
        builder.live_in(nm)
    for nm in live_out_names:
        builder.live_out(nm)
    return builder.build()


def _parse_op_line(builder: LoopBuilder, raw: str) -> None:
    cluster: int | None = None
    m = re.search(r"@c(\d+)\s*$", raw)
    if m:
        cluster = int(m.group(1))
        raw = raw[: m.start()].strip()

    parts = raw.split(None, 1)
    mnemonic = parts[0]
    try:
        opcode = Opcode(mnemonic)
    except ValueError as exc:
        raise IRParseError(f"unknown opcode {mnemonic!r}") from exc

    tokens = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
    tokens = [t for t in tokens if t]

    info = opcode.info
    dest = None
    if info.has_dest:
        if not tokens:
            raise IRParseError(f"{mnemonic} needs a destination: {raw!r}")
        dest = tokens.pop(0)
        if not dest.startswith(("r", "f")):
            raise IRParseError(f"bad destination register {dest!r} in {raw!r}")

    mem: MemRef | None = None
    if info.reads_mem or info.writes_mem:
        if not tokens:
            raise IRParseError(f"{mnemonic} needs a memory reference: {raw!r}")
        mem = _parse_memref(tokens.pop(-1))

    sources = tuple(_parse_operand(builder, t) for t in tokens)
    op = builder.emit(opcode, dest, sources, mem)
    op.cluster = cluster
