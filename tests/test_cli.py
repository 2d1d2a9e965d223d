"""Tests for the repro-tool CLI."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_experiments_listed(self):
        ns = build_parser().parse_args(["experiment", "table4"])
        assert ns.name == "table4"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])


class TestColdStart:
    @pytest.mark.parametrize("module", ["repro", "repro.cli"])
    def test_import_loads_no_scipy(self, module):
        import subprocess
        import sys

        # SciPy costs ~0.5 s per interpreter; only the fitting and
        # confidence-interval code paths may load it, on first use.
        code = (
            f"import sys; import {module}; "
            "sys.exit(1 if any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules) else 0)"
        )
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestDatasets:
    def test_lists_registered(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("cesm-atm", "hacc", "nyx", "hurricane-isabel"):
            assert name in out


class TestGenerateCompressDecompress:
    def test_full_file_workflow(self, tmp_path, capsys):
        field = tmp_path / "field.npy"
        comp = tmp_path / "field.rpz"
        rec = tmp_path / "rec.npy"

        assert main(["generate", "--dataset", "nyx", "--field", "velocity_x",
                     "--scale", "32", "--output", str(field)]) == 0
        assert main(["compress", "--input", str(field), "--output", str(comp),
                     "--codec", "zfp", "--error-bound", "1e-2"]) == 0
        assert main(["decompress", "--input", str(comp),
                     "--output", str(rec)]) == 0

        a, b = np.load(field), np.load(rec)
        assert a.shape == b.shape
        assert np.max(np.abs(a.astype(float) - b.astype(float))) <= 1e-2

    def test_chunked_file_workflow(self, tmp_path, capsys):
        field = tmp_path / "f.npy"
        comp = tmp_path / "f.rpck"
        rec = tmp_path / "r.npy"
        assert main(["generate", "--dataset", "cesm-atm", "--field", "T",
                     "--scale", "24", "--output", str(field)]) == 0
        assert main(["compress", "--input", str(field), "--output", str(comp),
                     "--codec", "sz", "--error-bound", "1e-2",
                     "--chunk-mb", "0.05"]) == 0
        assert "chunks" in capsys.readouterr().out
        assert main(["decompress", "--input", str(comp),
                     "--output", str(rec)]) == 0
        a, b = np.load(field), np.load(rec)
        assert np.max(np.abs(a.astype(float) - b.astype(float))) <= 1e-2

    def test_parallel_chunked_workflow(self, tmp_path, capsys):
        field = tmp_path / "f.npy"
        comp = tmp_path / "f.rpck"
        rec = tmp_path / "r.npy"
        assert main(["generate", "--dataset", "nyx", "--field", "velocity_x",
                     "--scale", "32", "--output", str(field)]) == 0
        assert main(["compress", "--input", str(field), "--output", str(comp),
                     "--codec", "sz", "--error-bound", "1e-2",
                     "--chunk-mb", "0.01",
                     "--executor", "thread", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "chunks" in out
        assert "tasks via thread" in out
        assert main(["decompress", "--input", str(comp), "--output", str(rec),
                     "--executor", "serial"]) == 0
        a, b = np.load(field), np.load(rec)
        assert np.max(np.abs(a.astype(float) - b.astype(float))) <= 1e-2

    def test_workers_flag_implies_chunking(self, tmp_path, capsys):
        field = tmp_path / "f.npy"
        np.save(field, np.ones((64, 8), dtype=np.float32))
        assert main(["compress", "--input", str(field),
                     "--output", str(tmp_path / "o.rpck"),
                     "--codec", "sz", "--workers", "2"]) == 0
        assert "chunks" in capsys.readouterr().out

    def test_executor_flag_validated(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compress", "--input", "x", "--output", "y",
                 "--executor", "gpu"]
            )

    def test_unknown_codec_is_error_not_crash(self, tmp_path, capsys):
        field = tmp_path / "f.npy"
        np.save(field, np.ones(16, dtype=np.float32))
        code = main(["compress", "--input", str(field),
                     "--output", str(tmp_path / "o"), "--codec", "lz4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_error(self, tmp_path, capsys):
        code = main(["compress", "--input", str(tmp_path / "absent.npy"),
                     "--output", str(tmp_path / "o"), "--codec", "sz"])
        assert code == 1


class TestCharacterizeTuneDump:
    @pytest.fixture(scope="class")
    def bundle_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "models.json"
        code = main(["characterize", "--output", str(path),
                     "--repeats", "3", "--stride", "5", "--scale", "32"])
        assert code == 0
        return path

    def test_bundle_is_valid_json(self, bundle_path):
        doc = json.loads(bundle_path.read_text())
        assert set(doc["compression_power"]) == {
            "Total", "SZ", "ZFP", "Broadwell", "Skylake"
        }
        assert doc["metadata"]["repeats"] == 3

    def test_tune_eqn3(self, bundle_path, capsys):
        assert main(["tune", "--models", str(bundle_path)]) == 0
        out = capsys.readouterr().out
        assert "broadwell" in out and "skylake" in out
        assert "1.75" in out  # Eqn. 3 Broadwell compression frequency

    def test_tune_optimal_edp(self, bundle_path, capsys):
        assert main(["tune", "--models", str(bundle_path),
                     "--policy", "optimal", "--objective", "edp"]) == 0
        assert "optimal/edp" in capsys.readouterr().out

    def test_dump(self, bundle_path, capsys):
        assert main(["dump", "--models", str(bundle_path), "--arch", "skylake",
                     "--target-gb", "64", "--scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "saved" in out and "kJ" in out

    def test_dump_unknown_arch(self, bundle_path, capsys):
        assert main(["dump", "--models", str(bundle_path),
                     "--arch", "epyc"]) == 1

    def test_characterize_with_export_dir(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        export = tmp_path / "artifacts"
        assert main(["characterize", "--output", str(out),
                     "--export-dir", str(export),
                     "--repeats", "2", "--stride", "6", "--scale", "32"]) == 0
        assert (export / "manifest.json").exists()
        assert (export / "compression_sweep.csv").exists()
        assert "artifacts exported" in capsys.readouterr().out

    def test_characterize_physical_curve(self, tmp_path, capsys):
        out = tmp_path / "phys.json"
        assert main(["characterize", "--output", str(out),
                     "--curve", "physical",
                     "--repeats", "2", "--stride", "6", "--scale", "32"]) == 0
        doc = json.loads(out.read_text())
        assert doc["metadata"]["curve"] == "physical"


class TestAdviseCampaignCluster:
    def test_advise_ratio(self, capsys):
        assert main(["advise", "--target-ratio", "5", "--scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "bound for ratio" in out and "eb =" in out

    def test_advise_psnr(self, capsys):
        assert main(["advise", "--target-psnr", "55", "--scale", "32"]) == 0
        assert "PSNR" in capsys.readouterr().out

    def test_advise_requires_exactly_one_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["advise", "--target-ratio", "5", "--target-psnr", "60"]
            )

    def test_campaign(self, capsys):
        assert main(["campaign", "--snapshots", "2", "--snapshot-gb", "8",
                     "--scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "I/O share" in out and "saved" in out

    def test_cluster(self, capsys):
        assert main(["cluster", "--nodes", "4", "--per-node-gb", "8",
                     "--scale", "32"]) == 0
        out = capsys.readouterr().out
        assert "CPU-bound fraction" in out and "makespan" in out


class TestExperimentCommand:
    def test_static_table(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_model_table_with_small_campaign(self, capsys):
        assert main(["experiment", "table5",
                     "--repeats", "2", "--stride", "6", "--scale", "32"]) == 0
        assert "TABLE V" in capsys.readouterr().out
