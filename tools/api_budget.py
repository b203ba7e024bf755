#!/usr/bin/env python3
"""Public-API budget: every public name in ``src/`` has a caller outside the tests.

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
calls, which is how such helpers creep back in.

Prints the public-name count and the ``src/`` line count; the exit status
is the number of unused names not in :data:`ALLOWLIST`, so CI can run it
bare.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

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


def src_lines(root: Path = REPO_ROOT) -> int:
    """Lines of Python under ``root/src``."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in _python_files(root, "src")
    )


def main() -> int:
    names, unused = scan()
    violations = [name for name in unused if name not in ALLOWLIST]
    print(
        f"public names: {len(names)}; src lines: {src_lines()}; "
        f"allowlisted: {len(ALLOWLIST)}; uncalled: {len(violations)}"
    )
    for name in violations:
        print(f"UNUSED {name}", file=sys.stderr)
    return len(violations)


if __name__ == "__main__":
    sys.exit(main())
