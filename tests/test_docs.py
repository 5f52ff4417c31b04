"""Documentation consistency checks.

The docs promise specific artifacts; these tests keep them honest:
every registered experiment is documented, every listed example
exists, and the DESIGN inventory matches the package layout.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design():
    return (ROOT / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def experiments_md():
    return (ROOT / "EXPERIMENTS.md").read_text()


@pytest.fixture(scope="module")
def readme():
    return (ROOT / "README.md").read_text()


class TestDesignDoc:
    def test_every_experiment_in_design(self, design):
        for exp_id in EXPERIMENTS:
            assert exp_id in design, f"{exp_id} missing from DESIGN.md"

    def test_paper_identity_confirmed(self, design):
        assert "Mourad" in design
        assert "ICPP 1993" in design

    def test_substitution_table_present(self, design):
        assert "Substitutions" in design
        assert "synthetic" in design.lower()

    def test_module_map_matches_packages(self, design):
        """Every ``pkg/`` and ``*.py`` the map names exists, and every
        subpackage on disk is in the map."""
        src = ROOT / "src" / "repro"
        block = re.search(r"```\nsrc/repro/\n(.*?)```", design, re.DOTALL)
        assert block, "module map code block missing from DESIGN.md"
        mapped, pkg = set(), None
        for line in block.group(1).splitlines():
            head = re.match(r"  (\w+)/", line)
            if head:
                pkg = head.group(1)
                mapped.add(pkg)
                assert (src / pkg / "__init__.py").exists(), f"{pkg}/"
                continue
            for name in re.findall(r"\b\w+\.py\b", line):
                assert pkg and (src / pkg / name).exists(), f"{pkg}/{name}"
        on_disk = {p.parent.name for p in src.glob("*/__init__.py")}
        assert on_disk <= mapped, sorted(on_disk - mapped)

    def test_named_benchmark_files_exist(self, design):
        named = set(re.findall(r"benchmarks/test_\w+\.py", design))
        assert named, "DESIGN.md names no benchmark file"
        missing = sorted(n for n in named if not (ROOT / n).exists())
        assert not missing, missing


class TestExperimentsDoc:
    def test_every_paper_figure_recorded(self, experiments_md):
        for i in range(4, 20):
            assert f"Figure {i}" in experiments_md or f"Fig {i}" in experiments_md, i

    def test_tables_recorded(self, experiments_md):
        for i in (1, 2):
            assert f"Table {i}" in experiments_md

    def test_extensions_recorded(self, experiments_md):
        for ext in ("ext-rebuild", "ext-destage", "ext-parity-grain",
                    "ext-spindle", "ext-scheduler", "ext-reliability"):
            assert ext in experiments_md

    def test_deviations_flagged_honestly(self, experiments_md):
        assert "Deviation" in experiments_md

    def test_campaign_results_exist(self):
        assert (ROOT / "results" / "campaign.txt").exists()
        assert (ROOT / "results" / "campaign.json").exists()


class TestReadme:
    def test_listed_examples_exist(self, readme):
        for line in readme.splitlines():
            if line.startswith("| `") and line.rstrip().endswith("|") and ".py" in line:
                name = line.split("`")[1]
                assert (ROOT / "examples" / name).exists(), name

    def test_install_commands_present(self, readme):
        assert "pip install -e ." in readme
        assert "pytest tests/" in readme
        assert "--benchmark-only" in readme

    def test_quickstart_code_runs(self, readme):
        """The README quickstart snippet is valid, runnable code."""
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "no python snippet in README"
        snippet = blocks[0].replace("scale=0.3", "scale=0.01")
        exec(compile(snippet, "<readme>", "exec"), {})
