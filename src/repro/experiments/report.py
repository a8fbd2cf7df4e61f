"""Uniform result printing and persistence for the experiments."""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Dict, List, Optional, Sequence


def report_failures(engine) -> bool:
    """Print the engine's failure report; True if anything failed.

    The CLI calls this before rendering a table: a keep-going run with
    failures has holes in its series, so the table is skipped and the
    failures are listed instead (the partial results are still saved,
    and the failure report rides inside them).
    """
    failed = bool(engine.failures)
    for entry in engine.failure_report():
        what = "timed out" if entry["timed_out"] else "failed"
        print(f"FAILED: {entry['scheme']} x {'+'.join(entry['workloads'])} "
              f"{what} after {entry['attempts']} attempt(s): "
              f"{entry['exc_type']}: {entry['message']}")
    if failed:
        print("partial results only; rerun to resume from the cache "
              "(completed jobs are cache hits)")
    return failed


def format_table(headers: Sequence[str], rows: List[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned text table (the experiments' stdout format)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([
            f"{v:.4g}" if isinstance(v, float) else str(v) for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, payload: Dict, directory: str = "results") -> str:
    """Persist an experiment's dict as JSON; returns the path.

    The write is atomic (temp file + ``os.replace``): a crash or a
    concurrent reader never observes a truncated JSON file, and two
    drivers writing the same name leave one intact winner.
    """
    out_dir = pathlib.Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return str(path)


def scientific(value: float) -> str:
    """Table II's notation: '2E-15', '0', '1'."""
    if value <= 0:
        return "0"
    if value >= 0.95:
        return "1"
    mantissa, exponent = f"{value:.0e}".split("e")
    return f"{mantissa}E{int(exponent)}"
