"""Report persistence: JSON with full provenance, CSV summary rows, and a
separate metadata sidecar for timestamps and machine details (numpy version,
CPU count, BLAS thread variables, the process's peak resident memory) so the
main files stay diffable.

Given identical configuration and seeds the .json and .csv bytes are
identical across runs; wall-clock information lives only in the
``<stem>.meta.json`` sidecar.
"""
from __future__ import annotations

import csv
import datetime
import json
import os
import platform
import sys

import numpy as np

from .errors import InvalidInputError

try:
    import resource
except ImportError:  # not on Windows: the sidecar then has no peak memory
    resource = None

SCHEMA_VERSION = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def artifact_version():
    from . import __version__

    return __version__


def build_report(kind, config, payload):
    """Assemble the canonical report body (no timestamps)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": artifact_version(),
        "kind": kind,
        "config": config.to_dict(),
        "results": payload,
    }


def write_report(stem, report, rows=None, header=None, timings=None):
    """Write <stem>.json, <stem>.csv (when rows given) and <stem>.meta.json.

    ``timings`` (a dict) goes into the sidecar only.  Returns the paths
    written.  An output directory that cannot be made or written raises
    ``InvalidInputError``: it comes from the configuration.
    """
    try:
        os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
        paths = []
        jpath = stem + ".json"
        with open(jpath, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(jpath)
        if rows is not None:
            cpath = stem + ".csv"
            with open(cpath, "w", newline="") as fh:
                writer = csv.writer(fh)
                if header:
                    writer.writerow(header)
                for row in rows:
                    writer.writerow(row)
            paths.append(cpath)
        mpath = stem + ".meta.json"
        meta = {
            "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            # BLAS threading changes the low bits of reported values
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        }
        if resource is not None:
            # the process's peak resident memory so far; ru_maxrss is in KB on
            # Linux and in bytes on macOS
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            meta["peak_rss_mb"] = round(peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10), 1)
        if timings:
            meta.update(timings)
        with open(mpath, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(mpath)
        return paths
    except OSError as exc:
        raise InvalidInputError(f"cannot write the report {stem}: {exc}") from exc
