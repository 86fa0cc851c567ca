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

Modulo reservation tables come in two interchangeable backends,
selected by :func:`make_mrt`:

``packed`` (the default)
    A machine's per-cycle resources are flattened into *pools* (one per
    cluster FU file, one per cluster copy-port file, one for the bus
    set) and a row's occupancy is a single Python int with an 8-bit
    counter field per pool.  An operation's demand is a precomputed
    *demand word* (a 1 in the low bit of each pool it consumes), so

    * ``place``/``remove`` are one integer add/subtract,
    * ``fits`` is one carry-detect add against a precomputed bias word
      (guard bit of a pool field sets iff that pool would overflow),
    * ``conflicting_ops`` is ``victim_word & demand_word`` per occupant,
    * the scheduler's whole ``[estart, estart + II)`` probe
      (``first_free``) is one tight loop of add-and-mask tests, with no
      per-placement bookkeeping beyond the row word itself — iterative
      scheduling under pressure is eviction-heavy, so placement state
      must stay maintenance-free.

``reference``
    The original dict-of-:class:`SlotPool` bookkeeping, kept verbatim as
    the golden oracle for the parity tests
    (``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

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
        """The packed demand word of ``op`` (mirrors
        :func:`op_resource_demand`, including cluster validation)."""
        cluster = op.cluster if op.cluster is not None else 0
        machine.validate_cluster(cluster if machine.is_clustered else None)
        if not (0 <= cluster < self.n_clusters):
            raise IndexError(
                f"cluster {cluster} out of range for {self.n_clusters}-pool "
                f"geometry"
            )
        if op.is_copy and self.copy_unit:
            return self._copy_words[cluster]
        return self._fu_words[cluster]


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
# Modulo reservation table backends
# ----------------------------------------------------------------------


class PackedModuloReservationTable:
    """Fixed-II modulo reservation table on packed occupancy words.

    Row ``t mod II`` must accommodate every operation issued at absolute
    time ``t``; placement and removal support the iterative scheduler's
    eviction mechanism.  See the module docs for the encoding; the public
    surface matches the reference backend exactly.
    """

    __slots__ = (
        "machine", "ii", "geom", "_occ", "_bias", "_guard",
        "_placed", "_row_ops", "_demands",
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
        #: per-row op_id -> demand word; insertion order mirrors placement
        #: order, so eviction-candidate order matches the reference
        self._row_ops: list[dict[int, int]] = [dict() for _ in range(ii)]
        #: per-op demand-word memo, shareable across II retries (the word
        #: depends only on the op and the machine, never the II)
        self._demands: dict[int, int] = demands if demands is not None else {}

    # The demand lookup is open-coded in every public method: the
    # iterative scheduler calls these hundreds of thousands of times per
    # corpus run and an extra bound-method frame per call is measurable.

    def fits(self, op: Operation, time: int) -> bool:
        word = self._demands.get(op.op_id)
        if word is None:
            word = self._demands[op.op_id] = self.geom.demand_word(op, self.machine)
        return not ((self._occ[time % self.ii] + word + self._bias) & self._guard)

    def first_free(self, op: Operation, estart: int) -> int | None:
        """First ``t`` in ``[estart, estart + II)`` where ``op`` fits, or
        None — the scheduler's whole probe window in one tight loop of
        carry-detect adds (one per row, no temporary objects)."""
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
        self._row_ops[row][oid] = word

    def remove(self, op: Operation) -> int:
        """Unplace ``op``; returns the time it had been scheduled at."""
        time, word = self._placed.pop(op.op_id)
        row = time % self.ii
        self._occ[row] -= word
        del self._row_ops[row][op.op_id]
        return time

    def is_placed(self, op: Operation) -> bool:
        return op.op_id in self._placed

    def time_of(self, op: Operation) -> int:
        return self._placed[op.op_id][0]

    def conflicting_ops(self, op: Operation, time: int) -> list[int]:
        """Op-ids currently occupying a resource ``op`` needs in row
        ``time mod II`` — candidates for eviction when placement is
        forced.  Two demand words share a pool iff their AND is nonzero
        (each carries single low bits in the pools it consumes)."""
        word = self._demands.get(op.op_id)
        if word is None:
            word = self._demands[op.op_id] = self.geom.demand_word(op, self.machine)
        return [
            oid for oid, w in self._row_ops[time % self.ii].items() if w & word
        ]


@dataclass
class ReferenceModuloReservationTable:
    """Fixed-II modulo reservation table (Rau, Section 2) — the original
    dict-of-:class:`SlotPool` implementation, kept verbatim as the golden
    oracle for the packed backend.

    Row ``t mod II`` must accommodate every operation issued at absolute
    time ``t``; placement and removal support the iterative scheduler's
    eviction mechanism.
    """

    machine: MachineDescription
    ii: int
    demands: dict[int, ResourceDemand] | None = None
    rows: list[SlotPool] = field(init=False)
    _placed: dict[int, tuple[int, ResourceDemand]] = field(default_factory=dict)
    #: per-row op_id -> demand occupancy index; insertion order mirrors
    #: placement order, so eviction-candidate order matches a linear scan
    #: of ``_placed``
    _row_ops: list[dict[int, ResourceDemand]] = field(init=False)
    #: per-op demand memo — the scheduler probes ``fits`` across a whole
    #: ``[estart, estart + II)`` window for the same op
    _demands: dict[int, ResourceDemand] = field(init=False)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError("II must be positive")
        self.rows = [SlotPool(self.machine) for _ in range(self.ii)]
        self._row_ops = [{} for _ in range(self.ii)]
        self._demands = self.demands if self.demands is not None else {}

    def row_of(self, time: int) -> SlotPool:
        return self.rows[time % self.ii]

    def _demand(self, op: Operation) -> ResourceDemand:
        demand = self._demands.get(op.op_id)
        if demand is None:
            demand = self._demands[op.op_id] = op_resource_demand(op, self.machine)
        return demand

    def fits(self, op: Operation, time: int) -> bool:
        return self.rows[time % self.ii].fits(self._demand(op))

    def first_free(self, op: Operation, estart: int) -> int | None:
        """First ``t`` in ``[estart, estart + II)`` where ``op`` fits."""
        for t in range(estart, estart + self.ii):
            if self.fits(op, t):
                return t
        return None

    def place(self, op: Operation, time: int) -> None:
        if op.op_id in self._placed:
            raise ValueError(f"operation already placed: {op!r}")
        demand = self._demand(op)
        self.rows[time % self.ii].take(demand)
        self._placed[op.op_id] = (time, demand)
        self._row_ops[time % self.ii][op.op_id] = demand

    def remove(self, op: Operation) -> int:
        """Unplace ``op``; returns the time it had been scheduled at."""
        time, demand = self._placed.pop(op.op_id)
        self.row_of(time).release(demand)
        del self._row_ops[time % self.ii][op.op_id]
        return time

    def is_placed(self, op: Operation) -> bool:
        return op.op_id in self._placed

    def time_of(self, op: Operation) -> int:
        return self._placed[op.op_id][0]

    def conflicting_ops(self, op: Operation, time: int) -> list[int]:
        """Op-ids currently occupying the resource ``op`` needs in row
        ``time mod II`` — candidates for eviction when placement is forced.
        O(row occupancy) via the per-row index, not O(all placed)."""
        demand = self._demand(op)
        out: list[int] = []
        for oid, d in self._row_ops[time % self.ii].items():
            same_fu = (
                demand.fu_cluster is not None and d.fu_cluster == demand.fu_cluster
            )
            same_copy = (
                demand.copy_cluster is not None and d.copy_cluster == demand.copy_cluster
            )
            same_bus = demand.bus and d.bus
            if same_fu or same_copy or same_bus:
                out.append(oid)
        return out


#: the default backend is also exported under the historical name — every
#: in-tree construction site that doesn't thread an explicit backend
#: (validation, tests) gets the packed implementation transparently
ModuloReservationTable = PackedModuloReservationTable

DEFAULT_MRT_BACKEND = "packed"

MRT_BACKENDS = ("packed", "reference")


class MRTBackendError(RuntimeError):
    """An unknown MRT backend was requested."""


def make_mrt(machine: MachineDescription, ii: int,
             backend: str | None = None, demands: dict | None = None):
    """Construct a modulo reservation table with the selected backend.

    ``demands`` optionally shares a per-op demand cache across tables
    (the iterative scheduler passes one dict through all its II retries;
    values are backend-specific, so never share a dict across backends).
    """
    name = backend or DEFAULT_MRT_BACKEND
    if name == "packed":
        return PackedModuloReservationTable(machine, ii, demands=demands)
    if name == "reference":
        return ReferenceModuloReservationTable(machine, ii, demands=demands)
    raise MRTBackendError(
        f"unknown mrt backend {name!r}; available: {', '.join(MRT_BACKENDS)}"
    )
