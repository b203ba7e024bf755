"""Declarative device-definition loader.

A device file is a small TOML (or JSON) document with four sections::

    [device]                      # identity + free-form tags
    name = "mlc-gen2"
    description = "..."
    cell = "MLC"
    generation = 2
    tags = ["mlc", "gen2"]

    [geometry]                    # -> repro.flash.geometry.SSDGeometry
    num_channels = 8
    ...

    [timing]                      # -> repro.flash.timing.FlashTiming
    read_ns = 20000
    ...

    [config]                      # device-level SimulationConfig knobs
    queue_depth = 64
    overprovisioning_fraction = 0.07
    ...

Every key is validated field-by-field against the dataclass it configures:
unknown keys are rejected, values are type-checked against the dataclass
annotation, and any failure raises a single :class:`DeviceConfigError`
naming the file, the offending key and the expected type - no bare
``KeyError``/``TypeError``/``ValueError`` escapes the loader.
"""

from __future__ import annotations

import dataclasses
import json
import tomllib
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.devices.model import DeviceModel
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import FlashTiming
from repro.ftl.allocation import AllocationOrder


class DeviceConfigError(Exception):
    """A device definition file failed to parse or validate.

    Carries the file, the offending key (dotted ``section.key`` form, or
    ``None`` for file-level problems) and a human description of what was
    expected, so a zoo of dozens of files stays debuggable from the message
    alone.
    """

    def __init__(self, source: Union[str, Path], key: Optional[str], expected: str) -> None:
        self.source = str(source)
        self.key = key
        self.expected = expected
        location = f"{self.source}" if key is None else f"{self.source}: key {key!r}"
        super().__init__(f"{location}: {expected}")


def _load_document(path: Path) -> Dict[str, Any]:
    """Read a ``.toml``/``.json`` device file into a plain dict of sections."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DeviceConfigError(path, None, f"unreadable device file ({exc})") from exc
    if path.suffix == ".json":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DeviceConfigError(path, None, f"invalid JSON ({exc})") from exc
    elif path.suffix == ".toml":
        try:
            document = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise DeviceConfigError(path, None, f"invalid TOML ({exc})") from exc
    else:
        raise DeviceConfigError(
            path, None, f"unsupported device file suffix {path.suffix!r} (.toml or .json)"
        )
    if not isinstance(document, dict):
        raise DeviceConfigError(path, None, "device file must be a table of sections")
    return document


# ----------------------------------------------------------------------
# Field-by-field validation against the config dataclasses
# ----------------------------------------------------------------------
#: SimulationConfig fields a device file's [config] section may set.  The
#: excluded fields are exactly the ones a declarative device must not carry:
#: geometry/timing/constraints have their own sections, device_state is a
#: per-experiment precondition, and allocation_order is accepted as a string
#: and converted below.
_CONFIG_FIELDS = (
    "queue_depth",
    "compose_ns",
    "compose_per_kb_ns",
    "decision_window_ns",
    "gc_enabled",
    "gc_free_block_watermark",
    "prefill_fraction",
    "prefill_overwrite_fraction",
    "overprovisioning_fraction",
    "readdressing_callback",
    "stale_penalty_ns",
    "allocation_order",
)

_SECTIONS = ("device", "geometry", "timing", "config")

_DEVICE_CELLS = ("SLC", "MLC", "TLC")


def _type_name(expected) -> str:
    if isinstance(expected, tuple):
        return "/".join(t.__name__ for t in expected)
    return expected.__name__


def _check_value(source, dotted_key: str, value, expected) -> Any:
    """Type-check one scalar; ints are accepted where floats are expected."""
    # bool is a subclass of int: reject it explicitly for numeric fields.
    if isinstance(value, bool) and expected in (int, float, (int, float)):
        raise DeviceConfigError(
            source, dotted_key, f"expected {_type_name(expected)}, got bool {value!r}"
        )
    if expected is float:
        expected = (int, float)
    if not isinstance(value, expected):
        raise DeviceConfigError(
            source,
            dotted_key,
            f"expected {_type_name(expected)}, got {type(value).__name__} {value!r}",
        )
    return float(value) if expected == (int, float) else value


def _dataclass_field_types(cls) -> Dict[str, type]:
    """Map a config dataclass's field names to their primitive types."""
    types: Dict[str, type] = {}
    for f in dataclasses.fields(cls):
        default = f.default if f.default is not dataclasses.MISSING else None
        if isinstance(default, bool):
            types[f.name] = bool
        elif isinstance(default, int):
            types[f.name] = int
        elif isinstance(default, float):
            types[f.name] = float
        else:
            types[f.name] = str
    return types


_GEOMETRY_TYPES = _dataclass_field_types(SSDGeometry)
_TIMING_TYPES = _dataclass_field_types(FlashTiming)


def _validate_section(
    source, section: str, raw: Mapping[str, Any], types: Mapping[str, type]
) -> Dict[str, Any]:
    """Validate one section against a field->type map, rejecting unknown keys."""
    if not isinstance(raw, Mapping):
        raise DeviceConfigError(source, section, "section must be a table of key = value pairs")
    validated: Dict[str, Any] = {}
    for key, value in raw.items():
        dotted = f"{section}.{key}"
        if key not in types:
            known = ", ".join(sorted(types))
            raise DeviceConfigError(source, dotted, f"unknown key (known keys: {known})")
        validated[key] = _check_value(source, dotted, value, types[key])
    return validated


def _validate_device_section(source, raw: Mapping[str, Any]) -> Dict[str, Any]:
    types = {"name": str, "description": str, "cell": str, "generation": int, "tags": list}
    if not isinstance(raw, Mapping):
        raise DeviceConfigError(source, "device", "section must be a table of key = value pairs")
    for required in ("name", "cell"):
        if required not in raw:
            raise DeviceConfigError(source, f"device.{required}", "required key is missing")
    validated = _validate_section(source, "device", raw, types)
    if validated["cell"] not in _DEVICE_CELLS:
        raise DeviceConfigError(
            source, "device.cell", f"expected one of {_DEVICE_CELLS}, got {validated['cell']!r}"
        )
    tags = validated.get("tags", [])
    for index, tag in enumerate(tags):
        if not isinstance(tag, str):
            raise DeviceConfigError(
                source, "device.tags", f"expected str at index {index}, got {type(tag).__name__}"
            )
    validated["tags"] = frozenset(tags)
    validated.setdefault("description", "")
    validated.setdefault("generation", 0)
    return validated


def _validate_config_section(source, raw: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.sim.config import SimulationConfig  # lazy: avoids import cycles

    types = {
        name: kind
        for name, kind in _dataclass_field_types(SimulationConfig).items()
        if name in _CONFIG_FIELDS
    }
    # Fields whose defaults are not primitives need their types pinned by hand.
    types["readdressing_callback"] = bool
    types["allocation_order"] = str
    validated = _validate_section(source, "config", raw, types)
    if "allocation_order" in validated:
        name = validated["allocation_order"]
        try:
            validated["allocation_order"] = AllocationOrder[name.upper()]
        except KeyError:
            members = ", ".join(member.name.lower() for member in AllocationOrder)
            raise DeviceConfigError(
                source, "config.allocation_order", f"expected one of: {members}; got {name!r}"
            ) from None
    return validated


def _build_dataclass(source, section: str, cls, fields: Dict[str, Any]):
    """Instantiate a frozen config dataclass, mapping its ValueErrors back."""
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        raise DeviceConfigError(source, section, f"invalid {cls.__name__}: {exc}") from exc


def load_device_file(path: Union[str, Path]) -> DeviceModel:
    """Load and validate one device definition file into a :class:`DeviceModel`."""
    path = Path(path)
    document = _load_document(path)
    for section in document:
        if section not in _SECTIONS:
            raise DeviceConfigError(
                path, section, f"unknown section (known sections: {', '.join(_SECTIONS)})"
            )
    if "device" not in document:
        raise DeviceConfigError(path, "device", "required section is missing")
    identity = _validate_device_section(path, document["device"])
    geometry_fields = _validate_section(
        path, "geometry", document.get("geometry", {}), _GEOMETRY_TYPES
    )
    timing_fields = _validate_section(path, "timing", document.get("timing", {}), _TIMING_TYPES)
    settings = _validate_config_section(path, document.get("config", {}))

    geometry = _build_dataclass(path, "geometry", SSDGeometry, geometry_fields)
    timing = _build_dataclass(path, "timing", FlashTiming, timing_fields)
    model = DeviceModel(
        name=identity["name"],
        description=identity["description"],
        cell=identity["cell"],
        generation=identity["generation"],
        tags=identity["tags"],
        geometry=geometry,
        timing=timing,
        settings=tuple(sorted(settings.items())),
        source=str(path),
    )
    # Prove the whole definition composes into a valid SimulationConfig now,
    # at load time, so a bad combination is a loader error naming the file -
    # not a ValueError three layers down when a job first resolves it.
    try:
        model.to_config()
    except (ValueError, TypeError) as exc:
        raise DeviceConfigError(path, "config", f"invalid device configuration: {exc}") from exc
    return model
