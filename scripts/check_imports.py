#!/usr/bin/env python
"""Import every ``repro`` module and resolve every name in its ``__all__``.

Usage, from any directory::

    PYTHONPATH=/path/to/checkout/src python /path/to/checkout/scripts/check_imports.py

(or with the package installed, without ``PYTHONPATH``). The checkout
root is dropped from ``sys.path`` first, so the test-only ``tests``
package cannot be imported. A library module that imports a test oracle
fails here, although ``python -m pytest`` would pass it because pytest
puts the root on ``sys.path``. A stale ``__all__`` entry left behind by
a deletion fails too. Every module except ``repro.__main__`` is imported.
The script exits 1 and lists every failure.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != ROOT]
    failures: List[str] = []
    try:
        import repro
    except Exception as exc:
        print(f"error: repro: {exc!r}", file=sys.stderr)
        return 1

    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(
            repro.__path__,
            "repro.",
            onerror=lambda name: failures.append(f"{name}: package import failed"),
        )
    ]
    for name in names:
        if name.rsplit(".", 1)[-1] == "__main__":
            continue
        try:
            module = importlib.import_module(name)
        except Exception as exc:  # report every broken module, not the first
            failures.append(f"{name}: {exc!r}")
            continue
        for export in getattr(module, "__all__", ()):
            if not hasattr(module, export):
                failures.append(f"{name}: __all__ lists missing name {export!r}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    print(f"imported {len(names)} repro modules, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
