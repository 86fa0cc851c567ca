"""Per-cycle issue resources for clustered VLIWs.

One cycle of the machine offers:

* ``fus_per_cluster`` general-purpose slots in each cluster,
* under the copy-unit model, ``copy_ports_per_cluster`` copy slots per
  cluster plus ``n_buses`` machine-wide bus slots.

Ordinary operations (and embedded-model copies) take one FU slot in
their cluster; copy-unit copies take one copy port in their cluster and
one bus.  Operations without a cluster assignment — the monolithic ideal
machine — draw from cluster 0, whose FU count is the full machine width.

This is the one resource model.  A machine's per-cycle resources are
flattened into *pools* (one per cluster FU file, one per cluster
copy-port file, one for the bus set), and a cycle's — or, modulo II, a
kernel row's — occupancy is a single Python int with an 8-bit counter
field per pool.  An operation's demand is a *demand word* (a 1 in the
low bit of each pool it consumes; :func:`demand_words` maps a whole body
in one pass), so

* placing or removing an operation is one integer add/subtract,
* a fit test is one carry-detect add against the geometry's bias word:
  ``(occupancy + word + bias) & guard`` is nonzero iff some pool would
  overflow,
* two operations compete for a pool iff their demand words AND nonzero.

Every scheduler (iterative modulo, Swing, list) and both validators keep
their own occupancy list, one word per cycle or kernel row, and probe it
this way.
"""

from __future__ import annotations

from collections import Counter

from repro.machine.machine import CopyModel, MachineDescription


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

    def demand_words(self, ops, machine: MachineDescription) -> list[int]:
        """The packed demand word of each of ``ops``, in order.  An
        out-of-range cluster raises the machine's ``ValueError`` on a
        clustered machine and ``IndexError`` otherwise."""
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
