"""Repo self-consistency: registry, benches, and docs stay in sync."""

import pathlib

from repro.harness.run_all import EXPERIMENTS, main

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestExperimentRegistry:
    def test_every_experiment_has_a_bench_file(self):
        bench_dir = REPO / "benchmarks"
        bench_sources = "\n".join(
            path.read_text() for path in bench_dir.glob("bench_*.py")
        )
        for exp_id, (title, runner) in EXPERIMENTS.items():
            assert runner.__name__ in bench_sources, (
                f"experiment {exp_id} ({runner.__name__}) has no benchmark"
            )

    def test_every_experiment_documented(self):
        experiments_md = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in EXPERIMENTS:
            assert f"## {exp_id} " in experiments_md or \
                f"## {exp_id}—" in experiments_md or \
                f"## {exp_id} —" in experiments_md, (
                f"experiment {exp_id} missing from EXPERIMENTS.md"
            )

    def test_every_experiment_in_design_index(self):
        design_md = (REPO / "DESIGN.md").read_text()
        for exp_id in EXPERIMENTS:
            assert f"| {exp_id} |" in design_md, (
                f"experiment {exp_id} missing from DESIGN.md's index"
            )

    def test_cli_rejects_unknown_experiment(self):
        assert main(["E999"]) == 2

    def test_cli_runs_a_cheap_experiment(self, capsys):
        assert main(["F1"]) == 0
        out = capsys.readouterr().out
        assert "F1" in out and "page-ship" in out


class TestDocumentationClaims:
    def test_readme_example_scripts_exist(self):
        readme = (REPO / "README.md").read_text()
        for line in readme.splitlines():
            if line.startswith("| `") and ".py" in line:
                script = line.split("`")[1]
                assert (REPO / "examples" / script).exists(), script

    def test_design_module_map_paths_exist(self):
        """Every src path mentioned in DESIGN.md's module map exists."""
        design = (REPO / "DESIGN.md").read_text()
        for token in ("repro.storage", "repro.locking", "repro.core",
                      "repro.index", "repro.workloads",
                      "repro.harness", "repro.net", "repro.records",
                      "repro.tools"):
            module_path = REPO / "src" / token.replace(".", "/")
            assert module_path.exists(), token

    def test_version_consistent(self):
        import repro
        pyproject = (REPO / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject
