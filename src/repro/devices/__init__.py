"""The device zoo: declarative device definitions.

The paper's evaluation hand-codes one device; this package externalizes
device models into small TOML files (``repro/devices/zoo/``) so
experiments can name devices (``SimJob(device="mlc-gen2")``), arrays can mix
heterogeneous generations, and a zoo edit invalidates exactly the cached
results computed against the edited device.
"""

from repro.devices.loader import DeviceConfigError, load_device_file
from repro.devices.model import DeviceModel
from repro.devices.registry import (
    ZOO_DIR,
    DeviceRegistry,
    default_registry,
    device_config,
    device_model,
)

__all__ = [
    "DeviceConfigError",
    "DeviceModel",
    "DeviceRegistry",
    "ZOO_DIR",
    "default_registry",
    "device_config",
    "device_model",
    "load_device_file",
]
