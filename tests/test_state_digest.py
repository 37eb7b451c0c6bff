"""tools/state_digest.py, the byte-identity gate: a workload's line
depends on nothing but the code."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

TOOL = Path(__file__).resolve().parents[1] / "tools" / "state_digest.py"


def test_dense_w64_double_line_repeats(tmp_path):
    # the tool pins BLAS threads and extends sys.path when it loads; keep
    # both to this test
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)):
        spec = importlib.util.spec_from_file_location("state_digest", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
    first, second = (tool.digest("dense-w64", "double", tmp_path) for _ in range(2))
    assert first == second
    workload, precision, file_sha, recon, state_sha = first.split()
    assert (workload, precision, len(file_sha), len(state_sha)) == ("dense-w64", "double", 64, 64)
    assert float.fromhex(recon) > 0
