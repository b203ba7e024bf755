"""Docs stay truthful: links resolve, packages are documented."""

import argparse
import functools
import importlib
import importlib.util
import re
import shutil
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


#: Files whose ``python -m repro...`` commands must run.
COMMAND_FILES = (
    "README.md",
    "docs/*.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

#: ``python -m <module>`` and, when it follows, the first positional word.
MODULE_COMMAND = re.compile(r"python3? -m (repro[\w.]*)(?:[ \t]+([a-z]\w*))?")


def _runnable(module_name):
    """True when ``python -m module_name`` has something to run."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if hasattr(module, "__path__"):
        return importlib.util.find_spec(module_name + ".__main__") is not None
    return callable(getattr(module, "main", None))


def _doc_commands():
    """``(file:line, module, first word)`` of every documented repro command."""
    for pattern in COMMAND_FILES:
        for path in sorted(REPO_ROOT.glob(pattern)):
            lines = path.read_text(encoding="utf-8").splitlines()
            for number, line in enumerate(lines, 1):
                for module, word in MODULE_COMMAND.findall(line):
                    yield f"{path.relative_to(REPO_ROOT)}:{number}", module, word


@functools.lru_cache(maxsize=None)
def _load_tool(name):
    """Import ``tools/<name>.py`` once per session (the budget's parse cache spans its tests)."""
    path = REPO_ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self, capsys):
        checker = _load_tool("check_links")
        assert checker.check_links() == []

    def test_scans_readme_roadmap_and_docs(self):
        checker = _load_tool("check_links")
        names = {path.name for path in checker.iter_doc_files()}
        assert {"README.md", "ROADMAP.md", "ARCHITECTURE.md", "OPERATIONS.md"} <= names

    def test_broken_relative_link_detected(self, tmp_path):
        checker = _load_tool("check_links")
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
        checker = _load_tool("check_links")
        doc = tmp_path / "README.md"
        doc.write_text(f"see [t]({target})\n", encoding="utf-8")
        assert checker.check_links(tmp_path) == []

    def test_existing_link_with_anchor_ok(self, tmp_path):
        checker = _load_tool("check_links")
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

    def test_documented_commands_run(self):
        from repro.experiments.figures import ARTIFACTS

        commands = list(_doc_commands())
        assert any(module == "repro.experiments" for _, module, _ in commands)
        broken = [
            f"{where}: python -m {module} {word}".rstrip()
            for where, module, word in commands
            if not _runnable(module)
            or (module == "repro.experiments" and word and word not in ARTIFACTS)
        ]
        assert not broken, f"documented commands that do not run: {broken}"

    def test_readme_links_both_docs(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in text
        assert "docs/OPERATIONS.md" in text

    def test_operations_covers_the_operator_topics(self):
        text = (REPO_ROOT / "docs" / "OPERATIONS.md").read_text(encoding="utf-8")
        for topic in (
            "--cache-dir",
            "--trace-dir",
            "--progress",
            "repro.perf",
            "SLO",
            "reconcil",
        ):
            assert topic in text, f"OPERATIONS.md missing {topic!r}"


class TestApiBudget:
    """Every public name in ``src/`` has a caller, and every option a setter, outside ``tests/``."""

    def test_every_public_name_has_a_caller(self):
        budget = _load_tool("api_budget")
        _, unused = budget.scan()
        uncalled = sorted(set(unused) - budget.ALLOWLIST)
        assert not uncalled, f"public names only tests call (delete them): {uncalled}"

    def test_allowlist_holds_only_uncalled_names(self):
        # An allowlisted name that gains a caller, or is deleted, leaves the list.
        budget = _load_tool("api_budget")
        _, unused = budget.scan()
        assert budget.ALLOWLIST <= set(unused)

    def test_a_test_only_method_is_caught(self, tmp_path):
        budget = _load_tool("api_budget")
        for directory in budget.CALLER_ROOTS:
            (tmp_path / directory).mkdir()
        (tmp_path / "src" / "events.py").write_text(
            "class EventQueue:\n"
            "    def push(self):\n"
            "        return self.drain()\n"
            "    def drain(self):\n"
            "        return self.drain()\n"
            "    def peek_time(self):\n"
            "        pass\n",
            encoding="utf-8",
        )
        (tmp_path / "tools" / "caller.py").write_text("queue.push()\n", encoding="utf-8")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_events.py").write_text("queue.peek_time()\n", encoding="utf-8")
        names, unused = budget.scan(tmp_path)
        assert len(names) == 4
        assert unused == ["events:EventQueue", "events:EventQueue.peek_time"]

    def test_every_option_is_set_outside_the_tests(self):
        budget = _load_tool("api_budget")
        _, unset = budget.scan_options()
        test_only = sorted(set(unset) - budget.OPTION_ALLOWLIST.keys())
        assert not test_only, f"options only tests set (make them constants): {test_only}"

    def test_option_allowlist_holds_only_unset_options(self):
        budget = _load_tool("api_budget")
        _, unset = budget.scan_options()
        assert budget.OPTION_ALLOWLIST.keys() <= set(unset)

    #: A public function with a defaulted keyword-only parameter.
    SHARD_TABLE = {
        "experiments/array_scaling.py": (
            "CHUNK_KB = 64\n",
            "def shard_table(rows, *, decimal_places=2):\n    return rows\n",
        )
    }

    @staticmethod
    def scan_copy(root, edits, callers):
        """``scan_options`` over a copy of the tree with ``edits`` applied.

        ``edits`` maps a ``src/`` file to ``(anchor, addition)``: the
        addition goes after the anchor line.  ``callers`` maps a file under
        ``tools/`` or ``tests/`` to its code.  Returns ``(options, unset
        options not allowlisted)``.
        """
        budget = _load_tool("api_budget")
        for directory in ("src", "perfbench", "examples"):
            shutil.copytree(
                REPO_ROOT / directory,
                root / directory,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        for directory in ("tools", "tests"):
            (root / directory).mkdir()
        for name, (anchor, addition) in edits.items():
            path = root / "src" / "repro" / name
            text = path.read_text(encoding="utf-8")
            assert anchor in text
            path.write_text(text.replace(anchor, anchor + addition, 1), encoding="utf-8")
        for name, code in callers.items():
            (root / name).write_text(code, encoding="utf-8")
        options, unset = budget.scan_options(root)
        return options, set(unset) - budget.OPTION_ALLOWLIST.keys()

    def test_a_test_only_config_field_is_caught(self, tmp_path):
        options, unset = self.scan_copy(
            tmp_path,
            {
                "sim/config.py": (
                    "    queue_depth: int = 64\n",
                    "    decision_window_ns: int = 2_000\n",
                )
            },
            {"tests/test_config.py": "SimulationConfig(decision_window_ns=999)\n"},
        )
        assert "repro.sim.config:SimulationConfig.decision_window_ns" in options
        assert unset == {"repro.sim.config:SimulationConfig.decision_window_ns"}

    def test_a_forwarded_config_field_is_caught(self, tmp_path):
        # Copying a field from one spec to the next sets nothing.
        options, unset = self.scan_copy(
            tmp_path,
            {
                "experiments/spec.py": (
                    "    chunk_bytes: int = 64 * 1024\n",
                    "    stripe_width: int = 4\n",
                )
            },
            {"tools/caller.py": "ArraySpec(workload, 2, 'SPK3', stripe_width=spec.stripe_width)\n"},
        )
        assert "repro.experiments.spec:ArraySpec.stripe_width" in options
        assert unset == {"repro.experiments.spec:ArraySpec.stripe_width"}

    #: A ``Phase`` field and a generator parameter no shipped caller sets.
    PHASE_AND_GENERATOR = {
        "scenarios/scenario.py": (
            "    time_scale: float = 1.0\n",
            "    num_devices: int = 1\n",
        ),
        "workloads/synthetic.py": (
            "    interarrival_ns: int = 2_000,\n",
            "    burst_bytes: int = 0,\n",
        ),
    }

    def test_a_keyword_sets_only_the_options_of_its_callee(self, tmp_path):
        # ``num_devices=`` passed to ``ArraySpec`` sets no ``Phase`` field of
        # that name, and ``Tenant.random`` hands its keywords to its
        # generator through the forwarding table.
        options, unset = self.scan_copy(
            tmp_path,
            self.PHASE_AND_GENERATOR,
            {
                "tools/caller.py": (
                    "ArraySpec(workload, num_devices=2, scheduler='SPK3')\n"
                    "Tenant.random('t', num_requests=1, size_bytes=1, burst_bytes=4)\n"
                ),
            },
        )
        assert "repro.scenarios.scenario:Phase.num_devices" in options
        assert "repro.workloads.synthetic:generate_random_workload.burst_bytes" in options
        assert unset == {"repro.scenarios.scenario:Phase.num_devices"}

    def test_a_positional_argument_sets_the_field_in_its_slot(self, tmp_path):
        # ``WorkloadSpec.mixed`` forwards to ``SyntheticWorkloadConfig``, not
        # to the random generator.
        _, unset = self.scan_copy(
            tmp_path,
            self.PHASE_AND_GENERATOR,
            {
                "tools/caller.py": (
                    "Phase('p', tenants, arrivals, 1.0, 2)\n"
                    "WorkloadSpec.mixed('w', burst_bytes=4)\n"
                ),
            },
        )
        assert unset == {"repro.workloads.synthetic:generate_random_workload.burst_bytes"}

    def test_a_test_only_keyword_parameter_is_caught(self, tmp_path):
        options, unset = self.scan_copy(
            tmp_path,
            self.SHARD_TABLE,
            {
                "tools/caller.py": "shard_table(rows)\n",
                "tests/test_table.py": "shard_table(rows, decimal_places=3)\n",
            },
        )
        assert "repro.experiments.array_scaling:shard_table.decimal_places" in options
        assert unset == {"repro.experiments.array_scaling:shard_table.decimal_places"}

    def test_a_keyword_parameter_set_from_the_cli_counts(self, tmp_path):
        # ``x=args.x`` is a real setting when ``x`` is a keyword-only
        # parameter: the command line chose it.
        options, unset = self.scan_copy(
            tmp_path,
            self.SHARD_TABLE,
            {"tools/caller.py": "shard_table(rows, decimal_places=args.decimal_places)\n"},
        )
        assert "repro.experiments.array_scaling:shard_table.decimal_places" in options
        assert not unset


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


def _flags(parser):
    """The option strings of each optional argument of ``parser`` (help aside)."""
    return [
        action.option_strings
        for action in parser._actions
        if action.option_strings and action.dest != "help"
    ]


def _subcommands(parser):
    """``{name: subparser}`` of ``parser``'s sub-commands."""
    (subparsers,) = [
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ]
    return subparsers.choices


class TestReachCensus:
    """``tools/reach.py`` names every shipped entry point and flag (it runs nothing here)."""

    @pytest.fixture(scope="class")
    def entries(self):
        return _load_tool("reach").ENTRY_POINTS

    @staticmethod
    def commands(entries, *prefix):
        """The argument lists after ``prefix`` of the entries starting with it."""
        return [entry[len(prefix):] for entry in entries if entry[: len(prefix)] == prefix]

    def test_every_artifact_example_subcommand_and_workload_runs(self, entries):
        from repro.experiments.figures import ARTIFACTS
        from repro.obs.__main__ import build_parser

        path = REPO_ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = workloads  # its dataclasses look their module up
        spec.loader.exec_module(workloads)

        artifacts = {args[0] for args in self.commands(entries, "-m", "repro.experiments")}
        assert artifacts == set(ARTIFACTS)
        examples = {entry[0] for entry in entries if entry[0].startswith("examples/")}
        assert examples == {f"examples/{path.name}" for path in EXAMPLES}
        subcommands = {args[0] for args in self.commands(entries, "-m", "repro.obs")}
        assert subcommands == set(_subcommands(build_parser()))
        benched = {args[1] for args in self.commands(entries, "perfbench/run.py")}
        assert benched == set(workloads.WORKLOADS)

    def test_every_flag_is_passed(self, entries):
        from repro.experiments.engine import add_engine_arguments
        from repro.experiments.fleet_sweep import build_parser as fleet_parser
        from repro.obs.__main__ import build_parser as obs_parser

        engine = _flags(add_engine_arguments(argparse.ArgumentParser()))
        fleet = [flags for flags in _flags(fleet_parser()) if flags not in engine]
        obs = [
            (_flags(subparser), self.commands(entries, "-m", "repro.obs", name))
            for name, subparser in _subcommands(obs_parser()).items()
        ]
        for flags, commands in (
            (engine, entries),
            (fleet, self.commands(entries, "-m", "repro.experiments.fleet_sweep")),
            *obs,
        ):
            passed = {word for command in commands for word in command}
            missing = [strings for strings in flags if not passed & set(strings)]
            assert not missing, f"no census entry passes {missing}"

    def test_census_allowlist_is_well_formed(self):
        budget = _load_tool("api_budget")
        defined = {name for name, _ in _load_tool("reach").functions().values()}
        assert set(budget.REACH_ALLOWLIST.values()) == budget.REACH_REASONS
        assert not budget.REACH_ALLOWLIST.keys() & budget.ALLOWLIST
        assert budget.REACH_ALLOWLIST.keys() <= defined
