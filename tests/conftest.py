"""Suite-wide settings.

Property tests run under a derandomized hypothesis profile: every run of
the suite draws the same examples, and nothing is written to a local
example database.

The checkout's src goes first on PYTHONPATH, so every subprocess a test
starts (``python -m mmvgreedy``) imports this tree, with or without the
install and whatever PYTHONPATH the suite was started with.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
