"""Docs stay truthful: links resolve, packages are documented."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


#: A package section of ARCHITECTURE.md and its "Entry points:" paragraph.
ENTRY_POINTS = re.compile(r"^### `(repro\.\w+)`[^\n]*\n\nEntry points: (.*?)\n\n", re.M | re.S)


def _resolves(package, name):
    """True when a backticked entry point exists.

    ``python -m pkg`` names a runnable package, a ``repro.``-dotted name is
    imported (module part) and walked (attribute part), and a bare name must
    be an attribute of the section's package itself.
    """
    if name.startswith("python -m "):
        return importlib.util.find_spec(name.split()[-1] + ".__main__") is not None
    if not name.startswith("repro."):
        return hasattr(package, name)
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _load_check_links():
    path = REPO_ROOT / "tools" / "check_links.py"
    spec = importlib.util.spec_from_file_location("check_links", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_links"] = module
    spec.loader.exec_module(module)
    return module


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self, capsys):
        checker = _load_check_links()
        assert checker.check_links() == []

    def test_scans_readme_roadmap_and_docs(self):
        checker = _load_check_links()
        names = {path.name for path in checker.iter_doc_files()}
        assert {"README.md", "ROADMAP.md", "ARCHITECTURE.md", "OPERATIONS.md"} <= names

    def test_broken_relative_link_detected(self, tmp_path):
        checker = _load_check_links()
        doc = tmp_path / "README.md"
        doc.write_text("see [missing](docs/nope.md)\n", encoding="utf-8")
        problems = checker.check_links(tmp_path)
        assert len(problems) == 1
        assert "nope.md" in problems[0]

    @pytest.mark.parametrize(
        "target",
        ["https://example.com/x", "mailto:a@b.c", "#anchor", "../../outside/repo.md"],
    )
    def test_skipped_targets(self, tmp_path, target):
        checker = _load_check_links()
        doc = tmp_path / "README.md"
        doc.write_text(f"see [t]({target})\n", encoding="utf-8")
        assert checker.check_links(tmp_path) == []

    def test_existing_link_with_anchor_ok(self, tmp_path):
        checker = _load_check_links()
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "GUIDE.md").write_text("# hi\n", encoding="utf-8")
        doc = tmp_path / "README.md"
        doc.write_text("see [g](docs/GUIDE.md#hi)\n", encoding="utf-8")
        assert checker.check_links(tmp_path) == []


class TestDocsCoverage:
    def test_architecture_documents_every_package(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        packages = sorted(
            path.name
            for path in (REPO_ROOT / "src" / "repro").iterdir()
            if path.is_dir() and (path / "__init__.py").exists()
        )
        missing = [name for name in packages if f"repro.{name}" not in text]
        assert not missing, f"packages missing from ARCHITECTURE.md: {missing}"

    def test_entry_points_resolve(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        sections = ENTRY_POINTS.findall(text)
        assert len(sections) == text.count("\nEntry points: ")
        unresolved = [
            f"{package_name}: {name}"
            for package_name, line in sections
            for name in re.findall(r"`([^`]+)`", line)
            if not _resolves(importlib.import_module(package_name), name)
        ]
        assert not unresolved, f"ARCHITECTURE.md entry points that do not resolve: {unresolved}"

    def test_readme_links_both_docs(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in text
        assert "docs/OPERATIONS.md" in text

    def test_operations_covers_the_operator_topics(self):
        text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
        for topic in (
            "--cache-dir",
            "--checkpoint-dir",
            "--trace-dir",
            "--progress",
            "repro.perf",
            "SLO",
            "reconcil",
        ):
            assert topic in text, f"OPERATIONS.md missing {topic!r}"


EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


class TestExamples:
    """Every example imports cleanly, so a removed API name fails tier-1.

    Each example guards ``main()`` behind ``__name__ == "__main__"``, so
    importing one runs none of its simulations.
    """

    def test_examples_exist(self):
        assert len(EXAMPLES) >= 8

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
    def test_example_imports(self, path):
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
