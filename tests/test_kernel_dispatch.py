"""Kernel backend selection; runs whichever backend is built."""

import os
import subprocess
import sys

from asrkit import kernels


def test_pure_env_var_selects_fallback():
    code = ("from asrkit import kernels; "
            "print(kernels.BACKEND)")
    out = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "ASRKIT_PURE": "1"},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "pure"


def test_default_backend_reported():
    assert kernels.BACKEND in ("pure", "compiled")
    assert kernels.ctc_loss_grad is not None
    assert kernels.ctc_prefix_all is not None
    assert kernels.edit_counts is not None
