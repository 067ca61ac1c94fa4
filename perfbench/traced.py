"""Run one kahlerlab CLI request in-process with the span recorder installed.

    python3 perfbench/traced.py --spans FILE -- <kahlerlab arguments>

The CLI's stdout and exit code pass through unchanged, so the caller checks
them exactly as for ``python -m kahlerlab.cli``.  Every kahlerlab
``lru_cache`` is cleared before the request, the cold start a fresh CLI
process pays; within the request (all eleven checks of ``verify-paper``)
the caches stay warm.  When the request ends, the spans (names as indices
into ``names``), the work counts and each cache's ``cache_info()`` are
written to FILE as JSON.  kahlerlab must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json

from spans import Recorder, find_caches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, metavar="FILE")
    parser.add_argument("request", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    request = args.request[1:] if args.request[:1] == ["--"] else args.request

    import kahlerlab.cli
    caches = find_caches()
    for cache in caches.values():
        cache.cache_clear()
    recorder = Recorder()
    with recorder:
        code = kahlerlab.cli.main(request)
    info = {name: list(c.cache_info()[:2]) for name, c in caches.items()}
    names: dict = {}
    rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]]
            for s in recorder.spans]
    text = json.dumps({"names": list(names), "spans": rows,
                       "counts": recorder.counts, "caches": info})
    with open(args.spans, "w") as fh:
        fh.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
