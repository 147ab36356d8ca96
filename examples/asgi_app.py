"""The ASGI entry point for hosting the serving tier under a process
manager — the module ``gunicorn.conf.py`` / ``uvicorn`` import strings
point at.

Run it any of these ways::

    # dependency-free stdlib bridge (one process, thread per connection)
    python -m repro serve data/ --port 8080

    # uvicorn, single process (pip install 'repro[server]')
    REPRO_SERVE_STORAGE=wal-dir uvicorn examples.asgi_app:app

    # gunicorn with uvicorn workers (true multi-process serving)
    gunicorn -c examples/gunicorn.conf.py examples.asgi_app:app

Configuration comes from the environment so the same module works under
every host:

``REPRO_SERVE_STORAGE``
    Durable store directory (see ``repro apply --wal``). When it exists
    the app recovers from it — checkpoint + serve-state + WAL tail — and
    serves at the last durable version; ingests are WAL-logged.
``REPRO_SERVE_DATABASE``
    Directory of ``<relation>.csv`` files to load when no durable store
    is given (or to seed a fresh one from).
``REPRO_STORE``
    Bucket backend, ``tuple`` (default) or ``flat``.

**Multi-process caveat**: each worker recovers its *own* copy of the
database, and ``POST /ingest`` bumps only the worker that served it —
workers drift. Run multiple workers only for read-only serving of a
static store; for a read/write deployment keep one worker (or one
``repro serve`` process) and scale reads with threads, which the
wait-free snapshot cursors are designed for.
"""

import os

from repro.server import create_app
from repro.storage import DurableStore


def build_app():
    storage = os.environ.get("REPRO_SERVE_STORAGE")
    database_dir = os.environ.get("REPRO_SERVE_DATABASE")
    store = os.environ.get("REPRO_STORE") or None
    if storage and DurableStore(storage).exists():
        return create_app(storage, store=store)
    if not database_dir:
        raise SystemExit(
            "set REPRO_SERVE_STORAGE to an existing durable store, or "
            "REPRO_SERVE_DATABASE to a directory of <relation>.csv files"
        )
    from repro.cli import load_csv_database

    return create_app(
        load_csv_database(database_dir), storage=storage or None, store=store
    )


app = build_app()
