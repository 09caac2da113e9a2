"""The package ``__init__``s export lazily, and the version has one source.

Each lazy package resolves the names in its ``__all__`` on first access
(``repro._lazy.lazy_exports``); the contract is the one an eager
``from submodule import name`` gave: the same object, listed by
``dir()``, and ``AttributeError`` for anything else.
"""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.sched",
    "repro.sim",
    "repro.workload",
    "repro.experiments",
    "repro.obs",
)

_SRC = Path(repro.__file__).resolve().parents[1]


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter started in the source tree."""
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=_SRC
    )
    assert done.returncode == 0, done.stderr


def defining_modules(name: str, value) -> list[str]:
    """Loaded ``repro`` submodules (not packages) binding ``name`` to ``value``."""
    return [
        module.__name__
        for module in list(sys.modules.values())
        if module is not None
        and module.__name__.startswith("repro.")
        and not hasattr(module, "__path__")
        and vars(module).get(name) is value
    ]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in set(module.__all__) - {"__version__"}:
            value = getattr(module, name)
            if callable(value):  # classes and functions say where they live
                owners = [value.__module__]
            else:
                owners = defining_modules(name, value)
            assert owners, f"{package}.{name} has no defining module"
            for owner in owners:
                assert getattr(sys.modules[owner], name) is value, (package, name, owner)

    def test_every_export_is_listed_by_dir(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")


def test_star_import_in_a_fresh_interpreter():
    run_fresh(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "missing = set(repro.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "assert namespace['Simulator'].__module__ == 'repro.sim.simulator'\n"
    )


@pytest.mark.parametrize(
    "imports",
    [
        "import repro.obs.metrics, repro.obs.session",
        "import repro.obs.session, repro.obs.metrics",
        "import repro.obs.logbridge, repro.obs.spans, repro.obs.metrics",
    ],
)
def test_obs_facade_functions_survive_submodule_imports(imports):
    """``obs.metrics()`` / ``obs.session()`` share their names with
    submodules; importing those must not rebind the functions."""
    run_fresh(
        f"{imports}\n"
        "import repro.obs as obs\n"
        "assert obs.metrics() is None and obs.session() is None\n"
        "obs.enable()\n"
        "assert obs.session() is not None and obs.metrics() is not None\n"
        "obs.disable()\n"
    )


class TestVersion:
    def test_version_is_a_plain_literal_global(self):
        """setuptools reads ``attr = "repro.__version__"`` statically:
        that needs a literal assignment in ``repro/__init__.py``."""
        tree = ast.parse((_SRC / "repro" / "__init__.py").read_text())
        literals = [
            node.value.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
            and isinstance(node.value, ast.Constant)
        ]
        assert literals == [repro.__version__]
        assert "__version__" in vars(repro)

    def test_pyproject_reads_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = _SRC.parent / "pyproject.toml"
        if not pyproject.is_file():
            pytest.skip("not running from a source checkout")
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        dynamic = config["tool"]["setuptools"]["dynamic"]
        assert dynamic["version"] == {"attr": "repro.__version__"}


def _refuses(call) -> None:
    with pytest.raises(TypeError, match="unexpected keyword|positional argument"):
        call()


class TestOfflineRescoringIsGone:
    """The trace recorder, store, offline policies and evaluator were
    deleted whole; live replays count the decisions the network overrules
    (``decisions_overruled``) instead. Nothing of their surface is left
    for a caller to reach half of."""

    @pytest.mark.parametrize("module", ["evaluator", "policies", "recorder", "trace"])
    def test_its_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.eval.{module}")

    def test_repro_eval_holds_only_the_statistics(self):
        import repro.eval
        import repro.eval.stats

        package = Path(repro.eval.__file__).parent
        assert sorted(p.name for p in package.glob("*.py")) == [
            "__init__.py", "fidelity.py", "stats.py",
        ]
        for name in repro.eval.__all__:
            assert getattr(repro.eval, name) is getattr(repro.eval.stats, name)

    @pytest.mark.parametrize("module,name", [
        ("repro.api", "evaluate_traces"),
        ("repro.api.facade", "evaluate_traces"),
    ])
    def test_its_functions_are_gone(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("method", ["mrsch", "heuristic"])
    def test_a_scheduler_carries_no_recorder(self, method):
        from repro.experiments.harness import ExperimentConfig, make_method

        config = ExperimentConfig(nodes=32, bb_units=16, n_jobs=15, window_size=5)
        sched = make_method(method, config.system(), config)
        for name in ("decision_recorder", "decision_features", "_last_scores",
                     "_last_features"):
            assert not hasattr(sched, name), name

    def test_a_scenario_result_has_no_evaluation(self):
        import dataclasses

        from repro.api import ScenarioResult

        fields = {f.name for f in dataclasses.fields(ScenarioResult)}
        assert fields == {"scenario", "tasks", "results", "reports"}

    @pytest.mark.parametrize("keyword", [
        "ExperimentTask.capture_traces",
        "TaskResult.trace_keys",
        "ExperimentRunner.trace_dir",
        "ExperimentRunner.trace_compact",
        "dispatch_tasks.trace_dir",
        "run_scenario.trace_dir",
    ])
    def test_its_keywords_are_refused(self, keyword, tmp_path):
        from repro.api import run_scenario
        from repro.dist import dispatch_tasks
        from repro.exp import ExperimentRunner
        from repro.exp.records import ExperimentTask, TaskResult

        owner, name = keyword.split(".")
        calls = {
            "ExperimentTask": lambda: ExperimentTask(
                "fcfs", ("S1",), 0, None, **{name: True}
            ),
            "TaskResult": lambda: TaskResult(
                "k", "fcfs", 0, ("S1",), {}, 0.0, **{name: ()}
            ),
            "ExperimentRunner": lambda: ExperimentRunner(**{name: tmp_path}),
            "dispatch_tasks": lambda: dispatch_tasks(tmp_path, [], **{name: tmp_path}),
            "run_scenario": lambda: run_scenario({}, **{name: tmp_path}),
        }
        _refuses(calls[owner])
        assert not any(tmp_path.iterdir())

    def test_execute_task_takes_the_task_alone(self):
        import inspect

        from repro.exp.tasks import execute_task

        assert list(inspect.signature(execute_task).parameters) == ["task"]


class TestOneWayIntoAStudy:
    """The scenario alone sizes a study, ``run_scenario``'s keywords say
    only how it runs, and one cell body serves grids and ``run_single``."""

    @pytest.mark.parametrize("keyword", ["config", "runner"])
    def test_run_scenario_refuses_sizing_and_engine(self, keyword, tmp_path):
        from repro.api import run_scenario

        _refuses(lambda: run_scenario({}, **{keyword: tmp_path}))

    def test_scenario_compile_takes_no_config(self):
        import inspect

        from repro.api import Scenario

        assert list(inspect.signature(Scenario.compile).parameters) == ["self"]
        assert not hasattr(Scenario, "validate_system")

    def test_run_single_lives_in_the_api_alone(self):
        import repro.experiments.harness as harness

        assert not hasattr(harness, "run_single")

    @pytest.mark.parametrize("entry", ["compare"])
    def test_a_grid_entry_takes_a_worker_count_not_a_runner(self, entry):
        """A caller with its own engine runs ``runner.run(scenario.compile())``;
        ``compare`` builds its own from ``n_workers``."""
        import inspect

        import repro.api as api
        from repro.exp import ExperimentRunner

        call = getattr(api, entry)
        params = inspect.signature(call).parameters
        assert "runner" not in params and params["n_workers"].default == 1
        _refuses(lambda: call(["S1"], runner=ExperimentRunner(n_workers=1), n_workers=2))


class TestEveryFigureIsAScenario:
    """The figure runners, their text renderers and the Kiviat
    normalisation went: a figure's variants are arms of a scenario under
    ``examples/scenarios/``, and ``FIDELITY.json`` records its claims."""

    @pytest.mark.parametrize("name", [
        "fig3_mlp_vs_cnn", "fig4_training_order", "fig5_fig6_comparison", "fig7_kiviat",
        "fig8_rbb_timeline", "fig9_rbb_distribution", "fig10_three_resources",
        "overhead_study", "format_table", "format_series", "format_boxstats",
    ])
    def test_removed_figure_name_is_gone(self, name):
        import repro.experiments

        assert name not in repro.experiments.__all__
        assert not hasattr(repro.experiments, name)

    @pytest.mark.parametrize("module", ["repro.experiments.figures", "repro.experiments.report"])
    def test_removed_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("module", ["repro", "repro.sim", "repro.sim.metrics"])
    def test_kiviat_normalize_is_gone(self, module):
        owner = importlib.import_module(module)
        assert "kiviat_normalize" not in getattr(owner, "__all__", ())
        assert not hasattr(owner, "kiviat_normalize")

    def test_format_table_lives_beside_its_one_caller(self):
        from repro.api import facade

        assert callable(facade.format_table)


class TestNnKeepsWhatThePaperTrains:
    """``repro.nn`` holds the layers, loss and optimizer the paper's three
    networks train with — the DFP agent, its CNN state module and the
    scalar-RL baseline — and nothing else."""

    def test_nn_exports_exactly_these_names(self):
        import repro.nn

        assert sorted(repro.nn.__all__) == sorted([
            "Layer", "Dense", "Conv1D", "Flatten", "LeakyReLU", "Sequential",
            "mse_loss", "Optimizer", "Adam", "he_init", "save_params", "load_params",
        ])

    @pytest.mark.parametrize("name", [
        "SGD", "Momentum", "RMSProp", "MaxPool1D", "Dropout", "ReLU", "Tanh",
        "Sigmoid", "Softmax", "huber_loss", "cross_entropy_loss",
    ])
    def test_removed_component_is_gone(self, name):
        for module in ("repro.nn", "repro.nn.layers", "repro.nn.optim", "repro.nn.losses"):
            assert not hasattr(importlib.import_module(module), name), module


class TestSurfaceWithoutCallersIsGone:
    """``repro.eval`` keeps the two paired statistics a fidelity gate
    reads; the grid pass-through and the cache's size/clear helpers had
    no caller and went with the evaluator they served."""

    def test_eval_exports_exactly_the_paired_statistics(self):
        import repro.eval

        assert repro.eval.__all__ == ["paired_bootstrap", "win_loss"]

    @pytest.mark.parametrize("name", [
        "rankdata", "spearman", "spearman_rows", "ComparisonReport",
    ])
    def test_removed_statistic_is_gone(self, name):
        for module in ("repro.eval", "repro.eval.stats"):
            assert not hasattr(importlib.import_module(module), name), module

    @pytest.mark.parametrize("owner,name", [
        ("ExperimentRunner", "run_grid"),
        ("ResultCache", "clear"),
        ("ResultCache", "__len__"),
    ])
    def test_removed_method_is_gone(self, owner, name):
        assert not hasattr(getattr(importlib.import_module("repro.exp"), owner), name)
