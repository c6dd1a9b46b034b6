import os

# one BLAS thread, set before numpy loads, as perfbench/run.py does: the suite's
# wall-time gates then do not depend on how many threads OpenBLAS would start
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from deskclip.encoders import TextConfig, TextEncoder  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# the desk recipe: what the end-to-end gate and the golden desk trajectories train with
DESK_RECIPE = ROOT / "configs" / "desk.ini"

# Acceptance-criteria outcomes, appended by tests/test_acceptance.py and
# echoed after the run so the pass/fail line per criterion survives
# pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def tiny_text_encoder():
    cfg = TextConfig(vocab_size=32, context_length=8, width=12, depth=1, heads=2, embed_dim=8)
    return TextEncoder(cfg, np.random.default_rng(0))
