"""``repr()`` of every ``src/`` class that defines ``__repr__``.

The debugging reprs run in no simulation, so a renamed or deleted attribute
they read goes unnoticed until someone prints the object.  The scan below
finds every ``__repr__`` under ``src/repro``; each needs an instance here.
"""

import ast
from pathlib import Path

import pytest

from repro.flash.commands import FlashOp
from repro.flash.request import MemoryRequest
from repro.nvmhc.tag import Tag
from repro.sim.config import SimulationConfig
from repro.sim.ssd import SSDSimulator
from repro.workloads.request import IOKind, IORequest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def classes_with_repr():
    """``module:Class`` of every class under ``src/repro`` defining ``__repr__``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__repr__"
                for item in node.body
            ):
                found.add(f"{module}:{node.name}")
    return found


def instances():
    """One instance per class, keyed like :func:`classes_with_repr`."""
    simulator = SSDSimulator(SimulationConfig.small(gc_enabled=False), "VAS")
    io = IORequest(kind=IOKind.WRITE, offset_bytes=0, size_bytes=4096, arrival_ns=0)
    address = simulator.ftl.translate_write(0)
    request = MemoryRequest(io_id=io.io_id, op=FlashOp.PROGRAM, lpn=0, size_bytes=2048, address=address)
    tag = Tag(io=io, enqueued_at_ns=0, memory_requests=[request])
    plane = simulator.chips[address.chip_key].plane(address.die, address.plane)
    return {
        "repro.core.scheduler:SchedulerBase": simulator.scheduler,
        "repro.flash.channel:Channel": simulator.channels[0],
        "repro.flash.chip:FlashChip": simulator.chips[address.chip_key],
        "repro.flash.plane:Plane": plane,
        "repro.flash.request:MemoryRequest": request,
        "repro.nvmhc.tag:Tag": tag,
        "repro.workloads.request:IORequest": io,
    }


def test_every_repr_class_has_an_instance():
    assert set(instances()) == classes_with_repr()


@pytest.mark.parametrize("name", sorted(classes_with_repr()))
def test_repr_runs(name):
    instance = instances()[name]
    text = repr(instance)
    assert text.startswith(type(instance).__name__ + "(")
