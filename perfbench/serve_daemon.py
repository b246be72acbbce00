"""A serve daemon for the serve-warm workload.

Usage: ``python3 perfbench/serve_daemon.py SOCKET CACHE_DIR``.  Prints
``ready`` once the socket is bound and serves until its standard input
closes, then stops the server (which closes the worker pool) and prints
its own peak resident memory in KiB.  The server keeps the library
defaults (two pool workers, ledger on) except for the cache's size cap.
"""

import resource
import sys
from pathlib import Path


def main() -> int:
    from repro.cache import ArtifactCache
    from repro.serve import ServeServer

    socket_path, cache_dir = sys.argv[1], sys.argv[2]
    # max_bytes=0 turns off the cache's size-capped eviction.  Eviction
    # runs after every publish and also deletes the staging directories
    # of publishes still in flight, so two concurrent builds of
    # distinct keys can fail; set-up builds the keys one at a time.
    server = ServeServer(socket_path=socket_path,
                         cache=ArtifactCache(Path(cache_dir), max_bytes=0))
    server.start()
    try:
        print("ready", flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
