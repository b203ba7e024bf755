"""The device registry: a directory of definitions, loaded and indexed.

:class:`DeviceRegistry` loads every ``*.toml`` file of a zoo
directory (by default the shipped ``repro/devices/zoo/``) through the
validating loader and indexes the resulting :class:`DeviceModel`s by name.
Experiment specs refer to devices by id (``SimJob(device="mlc-gen2")``);
resolution goes through :func:`default_registry`, and the *content* of the
resolved definition - not the id - is what enters job fingerprints, so
editing a zoo file invalidates exactly the cached results computed against
that device.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.devices.loader import DeviceConfigError, load_device_file
from repro.devices.model import DeviceModel

#: The shipped zoo: the device definitions this repository versions.
ZOO_DIR = Path(__file__).resolve().parent / "zoo"


class DeviceRegistry:
    """An indexed set of device models loaded from one zoo directory."""

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory) if directory is not None else ZOO_DIR
        if not self.directory.is_dir():
            raise DeviceConfigError(self.directory, None, "zoo directory does not exist")
        self._models: Dict[str, DeviceModel] = {}
        paths = sorted(self.directory.glob("*.toml"), key=lambda p: p.name)
        if not paths:
            raise DeviceConfigError(
                self.directory, None, "zoo directory holds no .toml device files"
            )
        for path in paths:
            model = load_device_file(path)
            if model.name in self._models:
                raise DeviceConfigError(
                    path,
                    "device.name",
                    f"duplicate device name {model.name!r} "
                    f"(already defined by {self._models[model.name].source})",
                )
            self._models[model.name] = model

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> Tuple[str, ...]:
        """Every registered device id, sorted."""
        return tuple(sorted(self._models))

    def get(self, name: str) -> DeviceModel:
        """The model registered under ``name``; unknown ids list the zoo."""
        try:
            return self._models[name]
        except KeyError:
            known = ", ".join(self.names())
            raise DeviceConfigError(
                self.directory, name, f"unknown device (registered devices: {known})"
            ) from None

    def config(self, name: str):
        """Resolve a device id straight to its :class:`SimulationConfig`."""
        return self.get(name).to_config()


_DEFAULT: Optional[DeviceRegistry] = None


def default_registry(refresh: bool = False) -> DeviceRegistry:
    """The registry over the shipped zoo, loaded once per process.

    ``refresh=True`` re-reads the directory (tests that edit zoo files use
    it; production sweeps treat the zoo as immutable for the process).
    """
    global _DEFAULT
    if _DEFAULT is None or refresh:
        _DEFAULT = DeviceRegistry(ZOO_DIR)
    return _DEFAULT


def device_config(name: str):
    """Shorthand: resolve a device id from the shipped zoo to a config."""
    return default_registry().config(name)


def device_model(name: str) -> DeviceModel:
    """Shorthand: the shipped zoo's model for a device id."""
    return default_registry().get(name)
