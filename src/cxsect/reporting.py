"""Report persistence: JSON with full provenance, CSV summary rows, and a
separate metadata sidecar for timestamps so the main files stay diffable.

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

SCHEMA_VERSION = "1"


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

    ``timings`` (a dict) goes into the sidecar only.  Returns the paths written.
    """
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
    }
    if timings:
        meta.update(timings)
    with open(mpath, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(mpath)
    return paths
