"""CLI surface of the service: ``repro serve`` / ``repro submit``."""

import pytest

from repro.cli import build_parser, main
from repro.service import AnalysisService, ServiceConfig, ServiceServer


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7461
        assert args.workers == 2
        assert args.cache_mb == 256
        assert args.weights == []

    def test_serve_weights(self):
        args = build_parser().parse_args(
            ["serve", "--weights", "clinical=3", "batch=1"]
        )
        assert args.weights == ["clinical=3", "batch=1"]

    @pytest.mark.parametrize("argv", [
        ["serve", "--cache-spill-mb", "1"],
        ["serve", "--cache-spill-dir", "spill"],
    ])
    def test_serve_has_no_cache_spill_flags(self, argv, capsys):
        # The result cache is one RAM LRU, bounded by --cache-mb alone.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit", "ds"])
        assert args.connect == "127.0.0.1:7461"
        assert args.tenant == "default"
        assert args.runtime == "threads"
        assert not args.no_wait

    def test_submit_requires_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])


class TestSubmitCommand:
    @pytest.fixture
    def server(self, dataset_root):
        with AnalysisService(ServiceConfig(workers=1)) as service:
            with ServiceServer(service, port=0) as srv:
                yield srv

    def test_submit_waits_and_prints_volumes(self, server, dataset_root,
                                             capsys):
        rc = main([
            "submit", dataset_root,
            "--connect", f"127.0.0.1:{server.port}",
            "--features", "asm", "idm",
            "--levels", "8", "--roi", "3", "3", "3", "2",
            "--intensity-max", "65535",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "done in" in out
        assert "asm" in out and "idm" in out

    def test_submit_no_wait_prints_job_id(self, server, dataset_root, capsys):
        rc = main([
            "submit", dataset_root,
            "--connect", f"127.0.0.1:{server.port}",
            "--features", "asm",
            "--levels", "8", "--roi", "3", "3", "3", "2",
            "--no-wait",
        ])
        assert rc == 0
        assert capsys.readouterr().out.strip().startswith("j-")

    def test_submit_rejected_dataset(self, server, capsys):
        rc = main([
            "submit", "/nonexistent",
            "--connect", f"127.0.0.1:{server.port}",
        ])
        assert rc == 1
        assert "rejected" in capsys.readouterr().err

    def test_submit_unreachable_service(self, capsys):
        rc = main(["submit", "ds", "--connect", "127.0.0.1:1"])
        assert rc == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_bad_weights_spec(self, capsys):
        rc = main(["serve", "--weights", "oops"])
        assert rc == 2
        assert "bad --weights" in capsys.readouterr().err
