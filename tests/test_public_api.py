"""Public-API surface tests: everything advertised must resolve."""

import importlib
import inspect

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", [
        "repro.catalog", "repro.storage", "repro.sql",
        "repro.optimizer", "repro.workload", "repro.core",
        "repro.simulator", "repro.benchdb", "repro.experiments",
        "repro.cli",
    ])
    def test_subpackages_import_cleanly(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} has no module docstring"

    def test_subpackage_alls_resolve(self):
        for module_name in ("repro.catalog", "repro.storage",
                            "repro.workload", "repro.core",
                            "repro.simulator", "repro.optimizer",
                            "repro.experiments", "repro.parallel"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), \
                    f"{module_name}.{name} missing"

    def test_one_parallel_backend(self):
        """``jobs`` is the only parallel knob: no backend selection
        survives in the exports or the signatures."""
        import repro.parallel
        from repro import LayoutAdvisor
        from repro.parallel import PortfolioSearch

        for name in ("BACKENDS", "BACKEND_CODES", "BACKEND_NAMES",
                     "AUTO_THREAD_MAX_BYTES"):
            assert not hasattr(repro.parallel, name), name
        for call in (PortfolioSearch.__init__, LayoutAdvisor.recommend):
            assert "backend" not in inspect.signature(call).parameters

    def test_exceptions_share_base(self):
        from repro import errors
        for name in errors.__dict__:
            obj = getattr(errors, name)
            if inspect.isclass(obj) and issubclass(obj, Exception) \
                    and obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError)

    def test_quickstart_docstring_example_runs(self):
        """The module docstring's quickstart must stay truthful."""
        from repro import LayoutAdvisor, winbench_farm
        from repro.benchdb import tpch

        db = tpch.tpch_database()
        advisor = LayoutAdvisor(db, winbench_farm(8))
        rec = advisor.recommend(tpch.tpch22_workload())
        assert rec.improvement_pct > 10
        lineitem = set(rec.layout.disks_of("lineitem"))
        orders = set(rec.layout.disks_of("orders"))
        assert not lineitem & orders
