#!/usr/bin/env python3
"""Public-API and options budget: nothing in ``src/`` exists only for the tests.

Scans ``src/repro`` for public definitions: module-level functions and
classes, the methods and properties of classes, and enum members.  A
definition is *used* when its name is referenced from ``src/``,
``perfbench/``, ``examples/`` or ``tools/`` outside its own body.  A
reference is a name, an attribute access, or a string constant that
spells the name or a dotted path ending in it (``perfbench`` patches
methods by their string names).  Imports and ``__all__`` lists re-export
a name; they do not use it.  Dunder methods are called implicitly and are
not scanned.

The scan is name-based: a method called ``get`` is kept alive by every
``dict.get`` call.  It catches a uniquely named helper that only a test
calls, which is how such helpers creep back in.  Homonyms are the job of
the reachability census (``tools/reach.py``), which runs every shipped
entry point and reports the functions that never ran.

The option scan applies the same rule to the configuration surface: the
dataclass fields of :data:`OPTION_CLASSES` (``SimulationConfig`` and every
dataclass it nests, ``SimJob`` and ``ArraySpec``, the scenario DSL's
tenants, phases, scenarios and arrival processes, and the fleet specs), and
the keyword-only parameters of every public function and method under
``src/`` (a constructor's are named after its class).  Only a field or a
parameter with a default is an option: every call sets a required one.  The
scan is name-based too.  An option is *set* when a file under
:data:`CALLER_ROOTS` passes it by keyword name outside the body of the
class or function that declares it, or a device-zoo TOML file sets the key.
A ``**mapping`` splat sets nothing, and neither does a pass of the form
``f=<expr>.f`` to a dataclass field ``f``: copying a field from one spec to
the next sets nothing.  A keyword-only parameter keeps plain name counting,
because ``progress=args.progress`` is a choice made on the command line.
An option nobody but the tests sets is a constant in disguise.

Prints the public-name count, the option count and the ``src/`` line count;
the exit status is the number of unused names and unset options not
allowlisted, so CI can run it bare.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Directories whose code keeps a public name alive.  Only ``src`` defines.
CALLER_ROOTS = ("src", "perfbench", "examples", "tools")

#: Public names kept without a caller outside the tests.  Two kinds only:
#: address and geometry vocabulary, and oracles the tests compare live code
#: against.
ALLOWLIST = frozenset(
    {
        # Address and geometry vocabulary.
        "repro.flash.geometry:PhysicalPageAddress.die_key",
        "repro.flash.geometry:PhysicalPageAddress.with_block_page",
        "repro.flash.geometry:SSDGeometry.block_size_bytes",
        "repro.flash.geometry:SSDGeometry.bytes_to_pages",
        "repro.flash.geometry:SSDGeometry.chip_coordinates",
        "repro.flash.geometry:SSDGeometry.lba_to_lpn",
        "repro.flash.geometry:SSDGeometry.planes_per_chip",
        "repro.flash.geometry:SSDGeometry.ppn_to_address",
        # Oracles.
        "repro.ftl.mapping:PageMapFTL.reverse_lookup",
        "repro.lifetime.state:device_state_workload",
        "repro.lifetime.state:occupancy_fingerprint",
        "repro.lifetime.state:replay_device_state",
        "repro.obs.export:validate_chrome_trace",
        "repro.obs.windows:reference_tail_windows",
    }
)

#: Why the reachability census (``tools/reach.py``) may excuse a function
#: no entry point runs: a closed set.
_ORACLE = "test oracle or oracle helper"
_GEOMETRY = "geometry vocabulary"
_ABSTRACT = "abstract method or dunder"
_ERROR = "error path"
_PATCH_POINT = "perfbench/tracing.py patch point"
REACH_REASONS = frozenset({_ORACLE, _GEOMETRY, _ABSTRACT, _ERROR, _PATCH_POINT})

#: Functions the census excuses although no entry point runs them.  The
#: name scan passes them (a caller by name, a private name or a dunder), so
#: :data:`ALLOWLIST`, which the census honours too, does not list them: a
#: name is excused in one place only.
REACH_ALLOWLIST: Dict[str, str] = {
    "repro.ftl.callbacks:ReaddressingCallback.on_migration": _ORACLE,
    "repro.ftl.mapping:PageMapFTL._base_lpn": _ORACLE,
    "repro.ftl.mapping:PageMapFTL._iter_mapping_items": _ORACLE,
    "repro.ftl.mapping:PageMapFTL.mapping_items": _ORACLE,
    "repro.lifetime.state:occupancy_snapshot": _ORACLE,
    "repro.flash.geometry:SSDGeometry.address_to_ppn": _ORACLE,
    "repro.flash.geometry:SSDGeometry._validate_address": _ORACLE,
    "repro.flash.geometry:PhysicalPageAddress.plane_key": _GEOMETRY,
    "repro.__init__:__getattr__": _ABSTRACT,
    "repro.array.host:PooledResult.parts": _ABSTRACT,
    "repro.core.scheduler:SchedulerBase.__repr__": _ABSTRACT,
    "repro.core.scheduler:SchedulerBase.next_composition": _ABSTRACT,
    "repro.flash.channel:Channel.__repr__": _ABSTRACT,
    "repro.flash.chip:FlashChip.__repr__": _ABSTRACT,
    "repro.flash.plane:Plane.__repr__": _ABSTRACT,
    "repro.flash.request:MemoryRequest.__repr__": _ABSTRACT,
    "repro.nvmhc.tag:Tag.__repr__": _ABSTRACT,
    "repro.obs.trace:TraceSink.instant": _ABSTRACT,
    "repro.obs.trace:TraceSink.span": _ABSTRACT,
    "repro.scenarios.arrivals:ArrivalProcess.sample": _ABSTRACT,
    "repro.workloads.request:IORequest.__repr__": _ABSTRACT,
    "repro.devices.loader:DeviceConfigError.__init__": _ERROR,
    "repro.devices.loader:_type_name": _ERROR,
    "repro.devices.registry:DeviceRegistry.names": _ERROR,
    "repro.metrics.collector:MetricsCollector.on_queue_stall": _PATCH_POINT,
}

#: The dataclass half of the configuration surface: ``(class, nested)``
#: pairs whose defaulted init fields are options (with ``nested``, a field
#: typed with another ``src/`` dataclass contributes that dataclass's fields
#: instead).
OPTION_CLASSES = (
    ("SimulationConfig", True),
    *(
        (name, False)
        for name in (
            "SimJob",
            "ArraySpec",
            "Tenant",
            "Phase",
            "Scenario",
            "PoissonArrivals",
            "BurstyArrivals",
            "DiurnalArrivals",
            "FleetSpec",
            "FleetNodeSpec",
            "TenantPolicy",
            "BackgroundJob",
        )
    ),
)

#: Where the device zoo's TOML files live; their keys set options.
ZOO_GLOB = "src/repro/devices/zoo/*.toml"

#: Options kept although only the tests set them: the paper-claims ledger
#: (``tests/test_paper_claims.py``) sets them to test a design claim or to
#: size an artifact.
OPTION_ALLOWLIST = {
    "repro.core.sprinkler:Sprinkler.overcommit_limit": (
        'ledger row "FARO over-commitment coalesces at least as much as one per visit"'
    ),
    "repro.core.sprinkler:Sprinkler.channel_first_traversal": (
        'ledger row "RIOS channel-striped bandwidth at least 0.9x channel-first"'
    ),
    "repro.experiments.spec:SimJob.scheduler_options": (
        "carries the two ledger ablation knobs above into their jobs"
    ),
    "repro.scenarios.library:default_scenarios.scale": (
        'ledger artifact "scenario matrix" runs the scenario set at half its request counts'
    ),
}

_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _python_files(root: Path, directory: str) -> Iterator[Path]:
    yield from sorted((root / directory).rglob("*.py"))


def _is_enum(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Attribute) and base.attr.endswith("Enum"))
        or (isinstance(base, ast.Name) and base.id.endswith("Enum"))
        for base in node.bases
    )


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(module: str, tree: ast.Module) -> Iterator[Tuple[str, str, ast.AST]]:
    """``(qualified name, bare name, node)`` of each public definition."""

    def visit(body: List[ast.stmt], prefix: str, enum: bool) -> Iterator[Tuple[str, str, ast.AST]]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _public(node.name):
                    yield f"{module}:{prefix}{node.name}", node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from visit(node.body, f"{prefix}{node.name}.", _is_enum(node))
            elif enum and isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and _public(target.id):
                        yield f"{module}:{prefix}{target.id}", target.id, node

    yield from visit(tree.body, "", False)


def _references(tree: ast.AST, strings: bool = True) -> Counter:
    """Names referenced in ``tree``; imports and ``__all__`` do not count.

    ``strings=False`` ignores string constants: a package ``__init__`` names
    its lazy re-exports in strings.
    """
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            skipped.update(id(child) for child in ast.walk(node.value))
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names[node.attr] += 1
        elif (
            strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and _DOTTED.fullmatch(node.value)
        ):
            names[re.split(r"[.:]", node.value)[-1]] += 1
    return names


def scan(root: Path = REPO_ROOT) -> Tuple[List[str], List[str]]:
    """``(every public name, the unused ones)`` defined under ``root/src``."""
    references: Counter = Counter()
    definitions: List[Tuple[str, str, ast.AST]] = []
    for directory in CALLER_ROOTS:
        for path in _python_files(root, directory):
            if path.resolve() == Path(__file__).resolve():
                continue  # the allowlist names its entries; that is no call
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            references.update(_references(tree, strings=path.name != "__init__.py"))
            if directory == "src":
                module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
                definitions.extend(_definitions(module, tree))
    # A property and its setter share one qualified name; keep it once.
    names = list(dict.fromkeys(qualified for qualified, _, _ in definitions))
    unused = [
        qualified
        for qualified, bare, node in definitions
        # A recursive call is no caller; an enum member has no body.
        if references[bare] - (0 if isinstance(node, ast.Assign) else _references(node)[bare]) <= 0
    ]
    return names, list(dict.fromkeys(unused))


def _classes(root: Path) -> Dict[str, Tuple[str, ast.ClassDef]]:
    """Every top-level class under ``root/src`` by bare name: ``(module, node)``."""
    classes: Dict[str, Tuple[str, ast.ClassDef]] = {}
    for path in _python_files(root, "src"):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (module, node)
    return classes


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        "dataclass" in _annotation_names(decorator) for decorator in node.decorator_list
    )


def _annotation_names(annotation: ast.expr) -> Set[str]:
    """Names an annotation mentions, including inside string forward references."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names |= _annotation_names(ast.parse(node.value, mode="eval").body)
    return names


def _is_init_field(node: ast.AnnAssign) -> bool:
    """False for ``field(init=False)``."""
    value = node.value
    return not (
        isinstance(value, ast.Call)
        and any(
            keyword.arg == "init"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
            for keyword in value.keywords
        )
    )


def _keyword_only_options(module: str, tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Defaulted keyword-only parameters of the public functions and methods.

    A constructor's parameters are named after its class (``C.f``), a
    method's after the method (``C.m.f``).
    """

    def parameters(function: ast.FunctionDef, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for argument, default in zip(function.args.kwonlyargs, function.args.kw_defaults):
            if default is not None:
                yield f"{module}:{prefix}{argument.arg}", function

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            yield from parameters(node, f"{node.name}.")
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    yield from parameters(method, f"{node.name}.")
                elif _public(method.name):
                    yield from parameters(method, f"{node.name}.{method.name}.")


def _options(root: Path) -> Tuple[Dict[str, ast.AST], Dict[str, ast.AST]]:
    """``(dataclass options, keyword-only options)``: qualified names with their owner."""
    classes = _classes(root)
    fields_found: Dict[str, ast.AST] = {}

    def fields(name: str, nested: bool) -> None:
        module, node = classes[name]
        for statement in node.body:
            if not (
                isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
                and _is_init_field(statement)
            ):
                continue
            inner = [
                other
                for other in _annotation_names(statement.annotation)
                if other in classes and _is_dataclass(classes[other][1])
            ]
            if nested and inner:
                for other in inner:
                    fields(other, nested)
            elif statement.value is not None:  # every construction sets a required field
                fields_found[f"{module}:{name}.{statement.target.id}"] = node

    for name, nested in OPTION_CLASSES:
        fields(name, nested)
    parameters: Dict[str, ast.AST] = {}
    for path in _python_files(root, "src"):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parameters.update(_keyword_only_options(module, tree))
    return fields_found, parameters


def _keywords(tree: ast.AST, forwards: bool = True) -> Counter:
    """Keyword names passed in the calls of ``tree``.

    ``forwards=False`` skips a pass of the form ``f=<expr>.f``: copying a
    field from one spec to the next sets nothing.
    """
    # ``keyword.arg`` is None for a ``**mapping`` splat.
    return Counter(
        keyword.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg
        and (
            forwards
            or not (isinstance(keyword.value, ast.Attribute) and keyword.value.attr == keyword.arg)
        )
    )


def scan_options(root: Path = REPO_ROOT) -> Tuple[List[str], List[str]]:
    """``(every option, the unset ones)`` of the configuration surface."""
    fields, parameters = _options(root)
    keywords: Counter = Counter()
    set_fields: Counter = Counter()
    for directory in CALLER_ROOTS:
        for path in _python_files(root, directory):
            if path.resolve() != Path(__file__).resolve():
                tree = ast.parse(path.read_text(encoding="utf-8"))
                keywords.update(_keywords(tree))
                set_fields.update(_keywords(tree, forwards=False))
    zoo_keys: Set[str] = set()
    for path in sorted(root.glob(ZOO_GLOB)):
        for section in tomllib.loads(path.read_text(encoding="utf-8")).values():
            zoo_keys.update(section)
    unset = []
    for options, counted, forwards in (
        (fields, set_fields, False),
        (parameters, keywords, True),
    ):
        for option, owner in options.items():
            name = option.rsplit(".", 1)[1]
            # The declaring class or function passing its own option sets nothing.
            if name not in zoo_keys and counted[name] - _keywords(owner, forwards)[name] <= 0:
                unset.append(option)
    return [*fields, *parameters], unset


def src_lines(root: Path = REPO_ROOT) -> int:
    """Lines of Python under ``root/src``."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in _python_files(root, "src")
    )


def main() -> int:
    names, unused = scan()
    violations = [name for name in unused if name not in ALLOWLIST]
    options, unset = scan_options()
    unset_violations = [option for option in unset if option not in OPTION_ALLOWLIST]
    print(
        f"public names: {len(names)}; options: {len(options)}; src lines: {src_lines()}; "
        f"allowlisted: {len(ALLOWLIST)} names, {len(OPTION_ALLOWLIST)} options; "
        f"uncalled: {len(violations)}; unset: {len(unset_violations)}"
    )
    for name in violations:
        print(f"UNUSED {name}", file=sys.stderr)
    for option in unset_violations:
        print(f"UNSET {option}", file=sys.stderr)
    return len(violations) + len(unset_violations)


if __name__ == "__main__":
    sys.exit(main())
