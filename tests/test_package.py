"""Package-level smoke tests: version, public API surface, __main__."""

import subprocess
import sys

import repro


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_import(self):
        import repro.analysis
        import repro.core
        import repro.distributed
        import repro.gpusim
        import repro.hashing
        import repro.pipeline
        import repro.sequence

        for mod in (repro.analysis, repro.core, repro.distributed, repro.gpusim,
                    repro.hashing, repro.pipeline, repro.sequence):
            assert mod.__doc__

    def test_all_exports_resolve(self):
        import repro.analysis
        import repro.core
        import repro.distributed
        import repro.gpusim
        import repro.hashing
        import repro.pipeline
        import repro.sanitize
        import repro.sequence
        import repro.service

        for mod in (repro.analysis, repro.core, repro.distributed,
                    repro.gpusim, repro.hashing, repro.pipeline,
                    repro.sanitize, repro.sequence, repro.service):
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name} missing"

    def test_main_module_help(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "assemble" in out.stdout
