"""Per-cycle issue resources for clustered VLIWs.

One cycle of the machine offers:

* ``fus_per_cluster`` general-purpose slots in each cluster,
* under the copy-unit model, ``copy_ports_per_cluster`` copy slots per
  cluster plus ``n_buses`` machine-wide bus slots.

Which resources an operation consumes is decided by
:func:`op_resource_demand`: ordinary operations (and embedded-model
copies) take one FU slot in their cluster; copy-unit copies take one copy
port in their destination cluster and one bus.  Operations without a
cluster assignment — the monolithic ideal machine — draw from cluster 0,
whose FU count is the full machine width.

Modulo scheduling (Rau, Section 2) flattens a machine's per-cycle
resources into *pools* (one per cluster FU file, one per cluster
copy-port file, one for the bus set), and a kernel row's occupancy is a
single Python int with an 8-bit counter field per pool.  An operation's
demand is a *demand word* (a 1 in the low bit of each pool it consumes;
:func:`demand_words` maps a whole body in one pass), so

* placing or removing an operation is one integer add/subtract,
* a fit test is one carry-detect add against the geometry's bias word
  (the guard bit of a pool field sets iff that pool would overflow),
* two operations compete for a pool iff their demand words AND nonzero.

The iterative modulo scheduler and the kernel validator work on these
words and per-row occupancy lists directly.  :class:`ModuloReservationTable`
wraps the same encoding behind an op-keyed interface for Swing modulo
scheduling; the acyclic :class:`ReservationTable` keeps plain
:class:`SlotPool` counters per cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.ir.operations import Operation
from repro.machine.machine import CopyModel, MachineDescription


@dataclass(frozen=True, slots=True)
class ResourceDemand:
    """What one operation consumes in its issue cycle."""

    fu_cluster: int | None = None     # one FU slot in this cluster
    copy_cluster: int | None = None   # one copy port in this cluster
    bus: bool = False                 # one machine-wide bus


# Interned demand values: only ~2 x n_clusters distinct demands exist, and
# constructing a frozen dataclass per call dominated this function's cost.
# ResourceDemand is immutable and compared by field, so sharing is safe.
_FU_DEMANDS: dict[int, ResourceDemand] = {}
_COPY_DEMANDS: dict[int, ResourceDemand] = {}


def op_resource_demand(op: Operation, machine: MachineDescription) -> ResourceDemand:
    """Map an operation to its issue-cycle resource demand."""
    cluster = op.cluster if op.cluster is not None else 0
    machine.validate_cluster(cluster if machine.is_clustered else None)
    if op.is_copy and machine.copy_model is CopyModel.COPY_UNIT:
        demand = _COPY_DEMANDS.get(cluster)
        if demand is None:
            demand = _COPY_DEMANDS[cluster] = ResourceDemand(
                copy_cluster=cluster, bus=True
            )
        return demand
    demand = _FU_DEMANDS.get(cluster)
    if demand is None:
        demand = _FU_DEMANDS[cluster] = ResourceDemand(fu_cluster=cluster)
    return demand


# ----------------------------------------------------------------------
# Packed resource geometry
# ----------------------------------------------------------------------

#: bits per pool counter field; capacities must stay below the guard bit
_FIELD_BITS = 8
_FIELD_MAX = (1 << (_FIELD_BITS - 1)) - 1  # 127


class ResourceGeometry:
    """Packed occupancy-word encoding of one machine shape.

    Pools are laid out ``[fu_0..fu_{C-1}, copy_0..copy_{C-1}, bus]`` with
    an ``_FIELD_BITS``-bit counter field each.  A demand word carries a 1
    in the low bit of every pool the operation consumes; a row fits a
    demand iff ``(occupancy + demand + bias) & guard == 0`` where
    ``bias`` pre-loads each field with ``127 - capacity`` so the field's
    top (guard) bit sets exactly on overflow.  Field arithmetic never
    carries across pools: ``count + bias + 1 <= 128 < 2**_FIELD_BITS``.
    """

    __slots__ = (
        "n_clusters", "bias", "guard", "copy_unit",
        "_fu_words", "_copy_words",
    )

    def __init__(self, n_clusters: int, fus_per_cluster: int,
                 copy_model: CopyModel, copy_ports: int, n_buses: int):
        ports = copy_ports if copy_model is CopyModel.COPY_UNIT else 0
        buses = n_buses if copy_model is CopyModel.COPY_UNIT else 0
        caps = [fus_per_cluster] * n_clusters + [ports] * n_clusters + [buses]
        if max(caps) > _FIELD_MAX:
            raise ValueError(
                f"resource capacity {max(caps)} exceeds the packed-field "
                f"limit {_FIELD_MAX}; widen _FIELD_BITS"
            )
        self.n_clusters = n_clusters
        self.copy_unit = copy_model is CopyModel.COPY_UNIT
        w = _FIELD_BITS
        self.guard = 0
        self.bias = 0
        for pool, cap in enumerate(caps):
            self.guard |= 1 << (pool * w + w - 1)
            self.bias |= (_FIELD_MAX - cap) << (pool * w)
        bus_pool = 2 * n_clusters
        self._fu_words = [1 << (c * w) for c in range(n_clusters)]
        self._copy_words = [
            (1 << ((n_clusters + c) * w)) | (1 << (bus_pool * w))
            for c in range(n_clusters)
        ]

    def demand_word(self, op: Operation, machine: MachineDescription) -> int:
        """The packed demand word of ``op``; see :meth:`demand_words`."""
        return self.demand_words((op,), machine)[0]

    def demand_words(self, ops, machine: MachineDescription) -> list[int]:
        """The packed demand word of each of ``ops``, in order (mirrors
        :func:`op_resource_demand`, including cluster validation: an
        out-of-range cluster raises the machine's ``ValueError`` on a
        clustered machine and ``IndexError`` otherwise)."""
        n_clusters, copy_unit = self.n_clusters, self.copy_unit
        fu_words, copy_words = self._fu_words, self._copy_words
        words = []
        for op in ops:
            cluster = op.cluster if op.cluster is not None else 0
            if not (0 <= cluster < n_clusters):
                if machine.is_clustered:
                    machine.validate_cluster(cluster)
                raise IndexError(
                    f"cluster {cluster} out of range for {n_clusters}-pool "
                    f"geometry"
                )
            words.append(
                copy_words[cluster] if copy_unit and op.is_copy else fu_words[cluster]
            )
        return words

    def pool_demand(self, words: list[int]) -> tuple[list[int], list[int]]:
        """Per-cluster FU and copy-port demand of a body whose demand
        words are ``words``: a count of each of the (at most 2 x clusters)
        distinct words."""
        counts = Counter(words)
        return (
            [counts[word] for word in self._fu_words],
            [counts[word] for word in self._copy_words],
        )


#: geometry cache — machines are few and geometries depend only on shape
_GEOMETRIES: dict[tuple, ResourceGeometry] = {}


def resource_geometry(machine: MachineDescription) -> ResourceGeometry:
    """The (cached) packed geometry of ``machine``."""
    key = (
        machine.n_clusters,
        machine.fus_per_cluster,
        machine.copy_model.value,
        machine.copy_ports_per_cluster,
        machine.n_buses,
    )
    geom = _GEOMETRIES.get(key)
    if geom is None:
        geom = _GEOMETRIES[key] = ResourceGeometry(
            machine.n_clusters, machine.fus_per_cluster,
            machine.copy_model, machine.copy_ports_per_cluster,
            machine.n_buses,
        )
    return geom


def demand_words(ops, machine: MachineDescription) -> list[int]:
    """The packed demand word of each of ``ops`` on ``machine``."""
    return resource_geometry(machine).demand_words(ops, machine)


@dataclass
class SlotPool:
    """Free-slot counters for a single cycle.

    ``bus_free`` defaults to ``None`` (= take the machine's bus count) so
    that an explicitly-passed exhausted bus count of ``0`` is honored
    rather than silently reset.
    """

    machine: MachineDescription
    fu_free: list[int] = field(default_factory=list)
    copy_free: list[int] = field(default_factory=list)
    bus_free: int | None = None

    def __post_init__(self) -> None:
        if not self.fu_free:
            self.fu_free = [self.machine.fus_per_cluster] * self.machine.n_clusters
        if not self.copy_free:
            ports = (
                self.machine.copy_ports_per_cluster
                if self.machine.copy_model is CopyModel.COPY_UNIT
                else 0
            )
            self.copy_free = [ports] * self.machine.n_clusters
        if self.bus_free is None:
            self.bus_free = self.machine.n_buses

    def fits(self, demand: ResourceDemand) -> bool:
        if demand.fu_cluster is not None and self.fu_free[demand.fu_cluster] < 1:
            return False
        if demand.copy_cluster is not None and self.copy_free[demand.copy_cluster] < 1:
            return False
        if demand.bus and self.bus_free < 1:
            return False
        return True

    def take(self, demand: ResourceDemand) -> None:
        if not self.fits(demand):
            raise ValueError("resource over-subscription")
        if demand.fu_cluster is not None:
            self.fu_free[demand.fu_cluster] -= 1
        if demand.copy_cluster is not None:
            self.copy_free[demand.copy_cluster] -= 1
        if demand.bus:
            self.bus_free -= 1

    def release(self, demand: ResourceDemand) -> None:
        if demand.fu_cluster is not None:
            self.fu_free[demand.fu_cluster] += 1
        if demand.copy_cluster is not None:
            self.copy_free[demand.copy_cluster] += 1
        if demand.bus:
            self.bus_free += 1


@dataclass
class ReservationTable:
    """Growable cycle-indexed reservation table for acyclic scheduling."""

    machine: MachineDescription
    rows: list[SlotPool] = field(default_factory=list)
    _placed: dict[int, tuple[int, ResourceDemand]] = field(default_factory=dict)
    #: per-op demand memo — ``fits`` probes many cycles for the same op
    _demands: dict[int, ResourceDemand] = field(default_factory=dict)

    def _row(self, cycle: int) -> SlotPool:
        while len(self.rows) <= cycle:
            self.rows.append(SlotPool(self.machine))
        return self.rows[cycle]

    def _demand(self, op: Operation) -> ResourceDemand:
        demand = self._demands.get(op.op_id)
        if demand is None:
            demand = self._demands[op.op_id] = op_resource_demand(op, self.machine)
        return demand

    def fits(self, op: Operation, cycle: int) -> bool:
        return self._row(cycle).fits(self._demand(op))

    def place(self, op: Operation, cycle: int) -> None:
        if op.op_id in self._placed:
            raise ValueError(f"operation already placed: {op!r}")
        demand = self._demand(op)
        self._row(cycle).take(demand)
        self._placed[op.op_id] = (cycle, demand)

    def cycle_of(self, op: Operation) -> int | None:
        entry = self._placed.get(op.op_id)
        return entry[0] if entry else None

    @property
    def length(self) -> int:
        return len(self.rows)


# ----------------------------------------------------------------------
# Modulo reservation table
# ----------------------------------------------------------------------


class ModuloReservationTable:
    """Fixed-II modulo reservation table on packed occupancy words.

    Row ``t mod II`` must accommodate every operation issued at absolute
    time ``t``.  Swing modulo scheduling and the MRT micro benchmark use
    it; the iterative scheduler runs the same encoding on op positions.
    See the module docs for the encoding.
    """

    __slots__ = (
        "machine", "ii", "geom", "_occ", "_bias", "_guard",
        "_placed", "_demands",
    )

    def __init__(self, machine: MachineDescription, ii: int,
                 demands: dict[int, int] | None = None):
        if ii < 1:
            raise ValueError("II must be positive")
        self.machine = machine
        self.ii = ii
        self.geom = resource_geometry(machine)
        self._bias = self.geom.bias
        self._guard = self.geom.guard
        #: one packed occupancy word per kernel row
        self._occ = [0] * ii
        #: op_id -> (time, demand word)
        self._placed: dict[int, tuple[int, int]] = {}
        #: per-op demand-word memo, shareable across II retries (the word
        #: depends only on the op and the machine, never the II)
        self._demands: dict[int, int] = demands if demands is not None else {}

    # The demand lookup is open-coded in every public method: an extra
    # bound-method frame per probe is measurable on the scheduling path.

    def fits(self, op: Operation, time: int) -> bool:
        word = self._demands.get(op.op_id)
        if word is None:
            word = self._demands[op.op_id] = self.geom.demand_word(op, self.machine)
        return not ((self._occ[time % self.ii] + word + self._bias) & self._guard)

    def first_free(self, op: Operation, estart: int) -> int | None:
        """First ``t`` in ``[estart, estart + II)`` where ``op`` fits, or
        None — the whole probe window in one tight loop of carry-detect
        adds (one per row, no temporary objects)."""
        word = self._demands.get(op.op_id)
        if word is None:
            word = self._demands[op.op_id] = self.geom.demand_word(op, self.machine)
        occ = self._occ
        probe = word + self._bias
        guard = self._guard
        ii = self.ii
        r = estart % ii
        for k in range(ii):
            if not ((occ[r] + probe) & guard):
                return estart + k
            r += 1
            if r == ii:
                r = 0
        return None

    def place(self, op: Operation, time: int) -> None:
        oid = op.op_id
        if oid in self._placed:
            raise ValueError(f"operation already placed: {op!r}")
        word = self._demands.get(oid)
        if word is None:
            word = self._demands[oid] = self.geom.demand_word(op, self.machine)
        row = time % self.ii
        if (self._occ[row] + word + self._bias) & self._guard:
            raise ValueError("resource over-subscription")
        self._occ[row] += word
        self._placed[oid] = (time, word)

    def remove(self, op: Operation) -> int:
        """Unplace ``op``; returns the time it had been scheduled at."""
        time, word = self._placed.pop(op.op_id)
        self._occ[time % self.ii] -= word
        return time
