"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def dataset_dir(tmp_path):
    out = str(tmp_path / "ds")
    rc = main(["phantom", "--out", out, "--shape", "16", "14", "6", "4",
               "--nodes", "2", "--seed", "1"])
    assert rc == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_defaults(self):
        args = build_parser().parse_args(["analyze", "dir"])
        assert args.variant == "hmp"
        assert args.levels == 32
        assert args.roi == [5, 5, 5, 3]


class TestPhantomAndInfo:
    def test_phantom_creates_dataset(self, dataset_dir, capsys):
        assert main(["info", dataset_dir]) == 0
        out = capsys.readouterr().out
        assert "(16, 14, 6, 4)" in out
        assert "storage nodes:    2" in out

    def test_dicom_format(self, tmp_path, capsys):
        out = str(tmp_path / "dcm")
        main(["phantom", "--out", out, "--shape", "10", "10", "4", "3",
              "--format", "dicom", "--nodes", "1"])
        main(["info", out])
        assert "dicom" in capsys.readouterr().out


class TestAnalyze:
    def test_hmp_analysis(self, dataset_dir, capsys):
        rc = main([
            "analyze", dataset_dir, "--levels", "8", "--roi", "3", "3", "3", "2",
            "--features", "asm", "--copies", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "asm" in out and "elapsed" in out

    def test_split_analysis_with_images(self, dataset_dir, tmp_path, capsys):
        images = str(tmp_path / "imgs")
        rc = main([
            "analyze", dataset_dir, "--variant", "split", "--levels", "8",
            "--roi", "3", "3", "3", "2", "--features", "asm", "idm",
            "--copies", "3", "--images-out", images,
        ])
        assert rc == 0
        import os

        assert os.path.isdir(os.path.join(images, "asm"))


class TestAnalyzeRuntimes:
    def test_distributed_over_loopback_agents(self, dataset_dir, capsys):
        rc = main([
            "analyze", dataset_dir, "--levels", "8", "--roi", "3", "3", "3", "2",
            "--features", "asm", "--copies", "2",
            "--runtime", "distributed", "--agents", "3",
        ])
        assert rc == 0
        assert "asm" in capsys.readouterr().out

    def test_hosts_without_distributed_rejected(self, dataset_dir, capsys):
        rc = main([
            "analyze", dataset_dir, "--hosts", "127.0.0.1",
        ])
        assert rc == 2
        assert "--runtime distributed" in capsys.readouterr().err

    def test_hosts_and_agents_mutually_exclusive(self, dataset_dir, capsys):
        rc = main([
            "analyze", dataset_dir, "--runtime", "distributed",
            "--hosts", "127.0.0.1", "--agents", "2",
        ])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_runtime_choices(self):
        args = build_parser().parse_args(
            ["analyze", "dir", "--runtime", "processes"])
        assert args.runtime == "processes"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "dir", "--runtime", "magic"])

    @pytest.mark.parametrize("argv", [
        ["analyze", "dir", "--staging", "ram=64M"],
        ["serve", "--staging", "ram=64M"],
    ])
    def test_filter_network_has_no_staging_flag(self, argv):
        # Every driver reads each chunk straight from the dataset; there
        # is no staging layer to size.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_has_no_pool_flag(self):
        # A service job is one run_pipeline call; there is no pool to size.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--pool-entries", "3"])

    def test_analyze_has_no_sparse_flag(self):
        # One co-occurrence representation: dense matrices.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "dir", "--sparse"])

    def test_analyze_has_no_elastic_flag(self):
        # Distributed membership is fixed when the run starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["analyze", "dir", "--runtime", "distributed", "--elastic"]
            )
        assert exc.value.code == 2


class TestSimulate:
    @pytest.mark.parametrize("figure", ["7a", "7b", "8", "9", "10", "11"])
    def test_figures_run(self, figure, capsys):
        rc = main(["simulate", "--figure", figure, "--scale", "0.25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "workload" in out

    @pytest.mark.parametrize("scale", ["0", "-0.5", "1.5", "nan"])
    def test_scale_outside_unit_interval_is_a_usage_error(self, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scale", scale])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "Traceback" not in err
