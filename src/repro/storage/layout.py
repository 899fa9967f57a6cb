"""Storage layouts: mapping database objects to devices (Section 8.1).

A layout decides which storage device holds each *object group* — a
table's data pages, a table's indexes (the paper models all indexes of
a table as co-located, Section 8.1.2), or the temporary area used by
sorts and hash spills.  The layout induces the experiment's
:class:`~repro.core.resources.ResourceSpace`:

* a single ``cpu`` dimension;
* per device, either two dimensions (``<dev>.seek`` and ``<dev>.xfer``
  — the paper's Section 8.1.1 setup) or one *locked-ratio* dimension
  whose usage is ``seeks * d_s + pages * d_t`` at the device's base
  parameters and whose cost is a unit multiplier (the shortcut of
  Sections 8.1.2/8.1.3 that keeps ``d_s``/``d_t`` in a fixed ratio).

The three storage configurations of the paper's evaluation are exposed
as factories:

* :meth:`StorageLayout.shared_device` — everything on one disk
  (Figure 5);
* :meth:`StorageLayout.per_table_and_index` — each table's data and
  each table's index group on separate devices, plus a temp device
  (Figure 6);
* :meth:`StorageLayout.per_table_with_indexes` — one device per table
  holding the table *and* its indexes, plus temp (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..core.feasible import VariationGroup
from ..core.resources import Resource, ResourceSpace
from ..core.vectors import CostVector, UsageVector
from .device import DEFAULT_SEEK_COST, DEFAULT_TRANSFER_COST, StorageDevice

__all__ = ["ObjectKey", "IOAccount", "StorageLayout", "DEFAULT_CPU_COST"]

#: DB2-style default CPU cost per instruction (paper, Section 8.1).
DEFAULT_CPU_COST = 1.0e-6

#: Object-group kinds a layout places on devices.
OBJECT_KINDS = ("table", "index", "temp")


@dataclass(frozen=True, order=True)
class ObjectKey:
    """Identity of an object group: a table's data, its indexes, or temp."""

    kind: str
    subject: str = ""

    def __post_init__(self) -> None:
        if self.kind not in OBJECT_KINDS:
            raise ValueError(f"unknown object kind {self.kind!r}")
        if self.kind == "temp" and self.subject:
            raise ValueError("temp object group has no subject")
        if self.kind != "temp" and not self.subject:
            raise ValueError(f"{self.kind} object group needs a subject")

    @classmethod
    def table(cls, name: str) -> "ObjectKey":
        return cls("table", name)

    @classmethod
    def index(cls, table: str) -> "ObjectKey":
        return cls("index", table)

    @classmethod
    def temp(cls) -> "ObjectKey":
        return cls("temp")


@dataclass
class IOAccount:
    """Abstract I/O and CPU usage of (part of) a query plan.

    Operators accumulate usage here in device-independent terms —
    seeks and pages per object group, plus CPU instructions — and the
    layout converts the account into a concrete usage vector.
    """

    io: dict[ObjectKey, tuple[float, float]] = field(default_factory=dict)
    cpu_instructions: float = 0.0

    def add_io(self, key: ObjectKey, seeks: float, pages: float) -> None:
        if seeks < 0 or pages < 0:
            raise ValueError("seeks/pages must be non-negative")
        old_seeks, old_pages = self.io.get(key, (0.0, 0.0))
        self.io[key] = (old_seeks + seeks, old_pages + pages)

    def add_cpu(self, instructions: float) -> None:
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self.cpu_instructions += instructions

    def merge(self, other: "IOAccount") -> None:
        """Accumulate another account into this one."""
        for key, (seeks, pages) in other.io.items():
            self.add_io(key, seeks, pages)
        self.add_cpu(other.cpu_instructions)

    def scaled(self, factor: float) -> "IOAccount":
        """Account multiplied by a repetition count (e.g. NLJ probes)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        result = IOAccount(cpu_instructions=self.cpu_instructions * factor)
        result.io = {
            key: (seeks * factor, pages * factor)
            for key, (seeks, pages) in self.io.items()
        }
        return result

    def copy(self) -> "IOAccount":
        clone = IOAccount(cpu_instructions=self.cpu_instructions)
        clone.io = dict(self.io)
        return clone

    def total_seeks(self) -> float:
        return sum(seeks for seeks, __ in self.io.values())

    def total_pages(self) -> float:
        return sum(pages for __, pages in self.io.values())


def _device_kind(
    hosted: Sequence[ObjectKey],
) -> tuple[str, str | None]:
    """Resource kind/subject tag for a device from what it hosts.

    Drives the Section 5.6 complementarity classification: a device
    holding only one table's indexes is an ``index`` dimension, one
    holding a table (possibly with its indexes, as in Figure 7) is a
    ``table`` dimension, a temp-only device is ``temp``, anything mixed
    across subjects is ``other``.
    """
    kinds = {key.kind for key in hosted}
    subjects = {key.subject for key in hosted}
    if kinds == {"temp"}:
        return "temp", None
    if len(subjects) == 1 and "temp" not in kinds:
        subject = next(iter(subjects))
        if kinds == {"index"}:
            return "index", subject
        return "table", subject
    return "other", None


class StorageLayout:
    """A mapping from object groups to devices, plus the cost space.

    Parameters
    ----------
    placement:
        Object group -> device.  Every device referenced must appear in
        ``devices``.
    devices:
        The devices, in resource-dimension order.
    split_seek_transfer:
        If True every device contributes independent seek and transfer
        dimensions; if False each device is one locked-ratio dimension.
    cpu_cost:
        Center cost of the ``cpu`` dimension (per instruction).
    """

    def __init__(
        self,
        placement: Mapping[ObjectKey, str],
        devices: Sequence[StorageDevice],
        split_seek_transfer: bool = False,
        cpu_cost: float = DEFAULT_CPU_COST,
    ) -> None:
        device_names = [device.name for device in devices]
        if len(set(device_names)) != len(device_names):
            raise ValueError("duplicate device names")
        known = set(device_names)
        for key, device_name in placement.items():
            if device_name not in known:
                raise ValueError(
                    f"object {key} placed on unknown device {device_name!r}"
                )
        if cpu_cost <= 0:
            raise ValueError("cpu_cost must be positive")
        self._placement = dict(placement)
        self._devices = list(devices)
        self._split = bool(split_seek_transfer)
        self._cpu_cost = float(cpu_cost)
        self._space = self._build_space()
        self._slots = self._build_slots()

    # ------------------------------------------------------------------
    # Construction of the resource space
    # ------------------------------------------------------------------
    def _hosted(self, device_name: str) -> list[ObjectKey]:
        return sorted(
            key
            for key, name in self._placement.items()
            if name == device_name
        )

    def _build_space(self) -> ResourceSpace:
        resources: list[Resource] = [Resource("cpu", kind="cpu")]
        for device in self._devices:
            hosted = self._hosted(device.name)
            kind, subject = _device_kind(hosted) if hosted else ("other", None)
            if self._split:
                seek_kind = "seek" if kind == "other" else kind
                xfer_kind = "transfer" if kind == "other" else kind
                resources.append(
                    Resource(f"{device.name}.seek", seek_kind, subject)
                )
                resources.append(
                    Resource(f"{device.name}.xfer", xfer_kind, subject)
                )
            else:
                resources.append(Resource(device.name, kind, subject))
        return ResourceSpace(tuple(resources))

    def _build_slots(self) -> dict[ObjectKey, tuple]:
        """Per placed object group, where :meth:`to_usage` adds its I/O.

        Split: ``(seek index, xfer index)``.  Locked: ``(index, d_s,
        d_t)`` of the device's one dimension and base parameters.
        """
        slots: dict[ObjectKey, tuple] = {}
        for key in self._placement:
            device = self.device_of(key)
            if self._split:
                slots[key] = (
                    self._space.index(f"{device.name}.seek"),
                    self._space.index(f"{device.name}.xfer"),
                )
            else:
                slots[key] = (
                    self._space.index(device.name),
                    device.seek_cost,
                    device.transfer_cost,
                )
        return slots

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> ResourceSpace:
        return self._space

    @property
    def devices(self) -> tuple[StorageDevice, ...]:
        return tuple(self._devices)

    @property
    def split_seek_transfer(self) -> bool:
        return self._split

    @property
    def cpu_cost(self) -> float:
        return self._cpu_cost

    def device_of(self, key: ObjectKey) -> StorageDevice:
        try:
            name = self._placement[key]
        except KeyError:
            raise KeyError(f"object {key} has no placement") from None
        for device in self._devices:
            if device.name == name:
                return device
        raise KeyError(name)  # pragma: no cover - checked in __init__

    def placement(self) -> dict[ObjectKey, str]:
        return dict(self._placement)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def center_costs(self) -> CostVector:
        """The estimated cost vector ``C_0`` the optimizer starts from.

        Split dimensions carry the device's seek/transfer parameters;
        locked dimensions carry a unit multiplier (their base parameters
        are folded into usage instead, keeping ``d_s/d_t`` fixed).
        """
        values: dict[str, float] = {"cpu": self._cpu_cost}
        for device in self._devices:
            if self._split:
                values[f"{device.name}.seek"] = device.seek_cost
                values[f"{device.name}.xfer"] = device.transfer_cost
            else:
                values[device.name] = 1.0
        return CostVector(self._space, values)

    def to_usage(self, account: IOAccount) -> UsageVector:
        """Convert an abstract I/O account into a usage vector.

        Components accumulate in the account's own order, so equal
        accounts give bit-identical vectors.
        """
        values = np.zeros(self._space.dimension)
        values[self._space.index("cpu")] = account.cpu_instructions
        for key, (seeks, pages) in account.io.items():
            slot = self._slots.get(key)
            if slot is None:
                self.device_of(key)  # raises the "no placement" KeyError
            if self._split:
                seek_index, xfer_index = slot
                values[seek_index] += seeks
                values[xfer_index] += pages
            else:
                index, seek_cost, transfer_cost = slot
                values[index] += seeks * seek_cost + pages * transfer_cost
        return UsageVector(self._space, values)

    def variation_groups(
        self, vary_cpu: bool = True
    ) -> tuple[VariationGroup, ...]:
        """One variation group per device (plus CPU if varied).

        In split mode a device's seek and transfer dimensions form one
        group — the paper's fixed-ratio shortcut; pass the dimensions
        through :class:`~repro.core.feasible.FeasibleRegion` with
        per-dimension groups instead if both should vary freely.
        """
        groups: list[VariationGroup] = []
        if vary_cpu:
            groups.append(VariationGroup("cpu", (self._space.index("cpu"),)))
        for device in self._devices:
            if self._split:
                indices = (
                    self._space.index(f"{device.name}.seek"),
                    self._space.index(f"{device.name}.xfer"),
                )
            else:
                indices = (self._space.index(device.name),)
            groups.append(VariationGroup(device.name, indices))
        return tuple(groups)

    def independent_groups(
        self, vary_cpu: bool = True
    ) -> tuple[VariationGroup, ...]:
        """One variation group per dimension (fully independent errors).

        This is the Section 8.1.1 regime where ``d_s`` and ``d_t`` vary
        independently of each other.
        """
        groups: list[VariationGroup] = []
        for index, resource in enumerate(self._space.resources):
            if resource.name == "cpu" and not vary_cpu:
                continue
            groups.append(VariationGroup(resource.name, (index,)))
        return tuple(groups)

    # ------------------------------------------------------------------
    # The paper's three storage configurations
    # ------------------------------------------------------------------
    @classmethod
    def shared_device(
        cls,
        tables: Iterable[str],
        seek_cost: float = DEFAULT_SEEK_COST,
        transfer_cost: float = DEFAULT_TRANSFER_COST,
        cpu_cost: float = DEFAULT_CPU_COST,
    ) -> "StorageLayout":
        """Everything on one disk; seek/transfer vary independently.

        Three effective resources — CPU, ``d_s``, ``d_t`` — matching
        the Section 8.1.1 experiment.
        """
        disk = StorageDevice("disk", seek_cost, transfer_cost)
        placement: dict[ObjectKey, str] = {ObjectKey.temp(): "disk"}
        for table in tables:
            placement[ObjectKey.table(table)] = "disk"
            placement[ObjectKey.index(table)] = "disk"
        return cls(
            placement,
            [disk],
            split_seek_transfer=True,
            cpu_cost=cpu_cost,
        )

    @classmethod
    def per_table_and_index(
        cls,
        tables: Sequence[str],
        seek_cost: float = DEFAULT_SEEK_COST,
        transfer_cost: float = DEFAULT_TRANSFER_COST,
        cpu_cost: float = DEFAULT_CPU_COST,
    ) -> "StorageLayout":
        """Each table and each table's index group on its own device.

        ``2k + 2`` effective resources for a ``k``-table query (one per
        table, one per index group, temp, CPU), with each device's
        ``d_s``/``d_t`` locked in ratio — the Section 8.1.2 experiment.
        """
        devices: list[StorageDevice] = []
        placement: dict[ObjectKey, str] = {}
        for table in tables:
            data_device = StorageDevice(
                f"dev.table.{table}", seek_cost, transfer_cost
            )
            index_device = StorageDevice(
                f"dev.index.{table}", seek_cost, transfer_cost
            )
            devices.extend([data_device, index_device])
            placement[ObjectKey.table(table)] = data_device.name
            placement[ObjectKey.index(table)] = index_device.name
        temp_device = StorageDevice("dev.temp", seek_cost, transfer_cost)
        devices.append(temp_device)
        placement[ObjectKey.temp()] = temp_device.name
        return cls(
            placement,
            devices,
            split_seek_transfer=False,
            cpu_cost=cpu_cost,
        )

    @classmethod
    def per_table_with_indexes(
        cls,
        tables: Sequence[str],
        seek_cost: float = DEFAULT_SEEK_COST,
        transfer_cost: float = DEFAULT_TRANSFER_COST,
        cpu_cost: float = DEFAULT_CPU_COST,
    ) -> "StorageLayout":
        """One device per table holding the table AND its indexes.

        ``k + 2`` effective resources — the Section 8.1.3 experiment
        that showed behaviour between Figures 5 and 6.
        """
        devices: list[StorageDevice] = []
        placement: dict[ObjectKey, str] = {}
        for table in tables:
            device = StorageDevice(
                f"dev.{table}", seek_cost, transfer_cost
            )
            devices.append(device)
            placement[ObjectKey.table(table)] = device.name
            placement[ObjectKey.index(table)] = device.name
        temp_device = StorageDevice("dev.temp", seek_cost, transfer_cost)
        devices.append(temp_device)
        placement[ObjectKey.temp()] = temp_device.name
        return cls(
            placement,
            devices,
            split_seek_transfer=False,
            cpu_cost=cpu_cost,
        )
