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

The option scan holds the configuration surface to the same standard: the
dataclass fields of :data:`OPTION_CLASSES` (``SimulationConfig`` and every
dataclass it nests, ``SimJob`` and ``ArraySpec``, the scenario DSL's
tenants, phases, scenarios and arrival processes, and the fleet specs), and
the keyword-only parameters of every public function and method under
``src/`` (a constructor's are named after its class).  Only a field or a
parameter with a default is an option: every call sets a required one.

An option is *set* when a file under :data:`CALLER_ROOTS`, outside the body
of the class or function that declares it, calls one of the option's own
callees with it (see :func:`_callees` for how a call is named):

* the declaring class or function itself (a method also as ``x.m``);
* one of the class's own ``**kwargs`` methods (``SimulationConfig``'s
  ``with_overrides``, ``small`` and ``paper_scale``), or ``replace`` for a
  dataclass;
* an entry of :data:`FORWARDS`, the ``WorkloadSpec``/``Tenant`` constructors
  that hand their keywords to a generator, or ``ARTIFACTS[key].run``, which
  calls the key's runner.

The same keyword passed to any other callee sets nothing: ``seed=`` passed
to ``fleet_scenario`` sets no other function's ``seed``.  A positional
argument to a dataclass sets the field in its slot, and a device-zoo TOML
key sets the field of its section's class (:data:`ZOO_SECTIONS`).  A
``**mapping`` splat sets nothing, and neither does a pass of the form
``f=<expr>.f`` to a dataclass field ``f``: copying a field from one spec to
the next sets nothing.  A keyword-only parameter does count such a pass,
because ``progress=args.progress`` is a choice made on the command line.
An option nobody but the tests sets is a constant in disguise.

Prints the public-name count, the option count and the ``src/`` line count;
the exit status is the number of unused names and unset options not
allowlisted, so CI can run it bare.
"""

from __future__ import annotations

import ast
import functools
import re
import sys
import tomllib
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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

#: Calls that pass their keywords on to a generator, by callee (see
#: :func:`_callees`): the ``WorkloadSpec`` and ``Tenant`` constructors.
FORWARDS = {
    f"{spec}.{constructor}": generator
    for spec in ("WorkloadSpec", "Tenant")
    for constructor, generator in (
        ("datacenter", "generate_datacenter_trace"),
        ("random", "generate_random_workload"),
        ("sequential", "generate_sequential_workload"),
        ("mixed", "SyntheticWorkloadConfig"),
    )
}

#: The module of the ``ARTIFACTS`` registry, whose ``Artifact.run`` calls
#: its runner.
ARTIFACTS_MODULE = "src/repro/experiments/figures.py"

#: Where the device zoo's TOML files live, and the class each section's keys
#: are passed to (``[device]`` names the device and sets no option).
ZOO_GLOB = "src/repro/devices/zoo/*.toml"
ZOO_SECTIONS = {"geometry": "SSDGeometry", "timing": "FlashTiming", "config": "SimulationConfig"}

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
    "repro.scenarios.library:default_scenarios.seed": (
        'ledger artifact "scenario matrix" builds the scenario set from its own seed'
    ),
    "repro.experiments.array_scaling:run_array_scaling.num_requests": (
        'ledger artifact "array" sizes the array workload at 16 requests'
    ),
}

_DOTTED = re.compile(r"[A-Za-z_][\w.:]*")


def _python_files(root: Path, directory: str) -> Iterator[Path]:
    yield from sorted((root / directory).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    """The syntax tree of ``path``; the scans only read it, so equal sources share one."""
    return _parse_source(path.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def _parse_source(source: str) -> ast.Module:
    return ast.parse(source)


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
            tree = _parse(path)
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
        tree = _parse(path)
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


def _forwarders(node: ast.ClassDef) -> List[str]:
    """The methods of ``node`` that take ``**kwargs``: they pass keywords to the class."""
    return [
        method.name
        for method in node.body
        if isinstance(method, ast.FunctionDef) and method.args.kwarg is not None
    ]


def _init_fields(node: ast.ClassDef) -> List[ast.AnnAssign]:
    """A dataclass's init fields in declaration order: its positional slots."""
    return [
        statement
        for statement in node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
        and _is_init_field(statement)
    ]


class _Option(NamedTuple):
    """One option: where it is declared and which calls may set it."""

    #: The class or function that declares the option.
    owner: ast.AST
    #: The callee names (see :func:`_callees`) whose keywords set it.
    callees: Set[str]
    #: A dataclass field's position among its constructor's arguments.
    slot: Optional[int] = None


def _options(root: Path) -> Dict[str, _Option]:
    """Every option of the configuration surface by qualified name."""
    classes = _classes(root)
    forwarded: Dict[str, Set[str]] = {}
    for caller, target in FORWARDS.items():
        forwarded.setdefault(target, set()).add(caller)

    def class_callees(name: str) -> Set[str]:
        callees = {name, *forwarded.get(name, ())}
        if _is_dataclass(classes[name][1]):
            callees.add("replace")
        for method in _forwarders(classes[name][1]):
            callees |= {method, f"{name}.{method}"}
        return callees

    found: Dict[str, _Option] = {}

    def fields(name: str, nested: bool) -> None:
        module, node = classes[name]
        for slot, statement in enumerate(_init_fields(node)):
            inner = [
                other
                for other in _annotation_names(statement.annotation)
                if other in classes and _is_dataclass(classes[other][1])
            ]
            if nested and inner:
                for other in inner:
                    fields(other, nested)
            elif statement.value is not None:  # every construction sets a required field
                found[f"{module}:{name}.{statement.target.id}"] = _Option(
                    node, class_callees(name), slot
                )

    for name, nested in OPTION_CLASSES:
        fields(name, nested)
    for path in _python_files(root, "src"):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        tree = _parse(path)
        for option, owner in _keyword_only_options(module, tree):
            if isinstance(owner, ast.ClassDef):
                callees = class_callees(owner.name)
            else:
                # ``f`` for a function, ``C.m`` for a method (also called as ``x.m``).
                qualified = option.split(":")[1].rsplit(".", 1)[0]
                callees = {owner.name, qualified, *forwarded.get(qualified, ())}
            found[option] = _Option(owner, callees)
    return found


def _artifact_runners(root: Path) -> Dict[str, str]:
    """``{artifact key: runner name}`` of the ``ARTIFACTS`` registry."""
    tree = _parse(root / ARTIFACTS_MODULE)
    runners: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "ARTIFACTS":
            for key, value in zip(node.value.keys, node.value.values):
                runner = value.args[1]
                runners[key.value] = runner.attr if isinstance(runner, ast.Attribute) else runner.id
    return runners


def _callees(call: ast.Call, runners: Dict[str, str], artifacts: Set[str]) -> List[str]:
    """The names ``call`` is matched by.

    ``f(...)`` is ``f``; ``C.m(...)`` on a capitalised name is ``C.m``, any
    other ``x.m(...)`` is ``m``.  ``ARTIFACTS[key].run(...)`` is the key's
    runner, and the ``run`` of a name bound to ``ARTIFACTS[...]`` is every
    runner.
    """
    func = call.func
    if isinstance(func, ast.Name):
        return [func.id]
    if not isinstance(func, ast.Attribute):
        return []
    receiver = func.value
    if func.attr == "run":
        if (
            isinstance(receiver, ast.Subscript)
            and getattr(receiver.value, "id", None) == "ARTIFACTS"
            and isinstance(receiver.slice, ast.Constant)
        ):
            return [runners[receiver.slice.value]]
        if isinstance(receiver, ast.Name) and receiver.id in artifacts:
            return list(runners.values())
    if isinstance(receiver, ast.Name) and receiver.id[:1].isupper():
        return [f"{receiver.id}.{func.attr}"]
    return [func.attr]


def _settings(tree: ast.AST, runners: Dict[str, str]) -> Counter:
    """``(callee, keyword)`` and ``(callee, position)`` passes in the calls of ``tree``.

    A keyword of the form ``f=<expr>.f`` counts as ``(callee, "=f")``: it
    copies a field from one spec to the next.  A ``**mapping`` splat sets
    nothing, and no position counts after a ``*sequence`` splat.
    """
    artifacts = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Subscript)
        and getattr(node.value.value, "id", None) == "ARTIFACTS"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    passes: Counter = Counter()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        keys: List[object] = []
        for position, argument in enumerate(node.args):
            if isinstance(argument, ast.Starred):
                break
            keys.append(position)
        for keyword in node.keywords:
            if keyword.arg is None:  # a ``**mapping`` splat
                continue
            copied = isinstance(keyword.value, ast.Attribute) and keyword.value.attr == keyword.arg
            keys.append(f"={keyword.arg}" if copied else keyword.arg)
        for callee in _callees(node, runners, artifacts):
            passes.update((callee, key) for key in keys)
    return passes


def scan_options(root: Path = REPO_ROOT) -> Tuple[List[str], List[str]]:
    """``(every option, the unset ones)`` of the configuration surface."""
    options = _options(root)
    runners = _artifact_runners(root)
    passes: Counter = Counter()
    for directory in CALLER_ROOTS:
        for path in _python_files(root, directory):
            if path.resolve() != Path(__file__).resolve():
                passes.update(_settings(_parse(path), runners))
    for path in sorted(root.glob(ZOO_GLOB)):
        for section, keys in tomllib.loads(path.read_text(encoding="utf-8")).items():
            if section in ZOO_SECTIONS:
                passes.update((ZOO_SECTIONS[section], key) for key in keys)
    owners: Dict[int, Counter] = {}
    unset = []
    for qualified, option in options.items():
        name = qualified.rsplit(".", 1)[1]
        owner = qualified.split(":")[1].split(".")[0]
        # A keyword-only parameter copied from a spec (``x=args.x``) is a choice.
        keys = [(callee, name) for callee in option.callees]
        if option.slot is None:
            keys += [(callee, f"={name}") for callee in option.callees]
        else:
            keys.append((owner, option.slot))
        # The declaring class or function passing its own option sets nothing.
        own = owners.get(id(option.owner))
        if own is None:
            own = owners[id(option.owner)] = _settings(option.owner, runners)
        if sum(passes[key] - own[key] for key in keys) <= 0:
            unset.append(qualified)
    return list(options), unset


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
