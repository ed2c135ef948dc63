import subprocess
import sys

import geohg


def test_every_exported_name_resolves():
    missing = [name for name in geohg.__all__ if not hasattr(geohg, name)]
    assert missing == []
    assert len(set(geohg.__all__)) == len(geohg.__all__)


def test_import_starts_no_thread():
    # In a fresh interpreter, as this one has imported geohg already.
    code = ("import threading; n = threading.active_count(); import geohg; "
            "assert threading.active_count() == n, threading.enumerate()")
    subprocess.run([sys.executable, "-c", code], check=True)
