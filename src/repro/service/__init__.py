"""Networked guarantee service: coordinator, workers, HTTP front-end.

The distributed half of the guarantee pipeline, stdlib networking only
(framed JSON over TCP between coordinator and workers, a hand-rolled
:mod:`asyncio` HTTP front door for clients):

* :mod:`repro.service.wire` — the framed-message protocol and the
  result codec (reusing the store's tagged encoding, so remote results
  are cache-compatible with local ones);
* :mod:`repro.service.coordinator` — shard leases, heartbeats, lease
  reassignment/bisection/quarantine on worker death;
* :mod:`repro.service.worker` — the ``repro-zoo worker`` loop,
  executing leases through the ordinary sweep fabric;
* :mod:`repro.service.client` — :func:`remote_sweep`, the transport
  behind ``executor="remote"`` in :func:`repro.engine.sweep`;
* :mod:`repro.service.frontend` — ``repro-zoo serve``: ``/guarantee``
  answered straight from the :class:`~repro.store.ResultStore` on a
  hit, enqueued on the fleet on a miss;
* :mod:`repro.service.journal` — the sqlite WAL job journal that lets
  a SIGKILLed coordinator replay its open jobs on restart.

The merged output of a remote sweep is bit-identical to the serial
path: a point's value depends only on its store query (scenario key,
formula, backend, config), never on its grid position or worker, and
results merge first-write-wins by grid index — which is also what
makes journal replay and lease re-runs idempotent.
"""

from .client import (
    DEFAULT_CLIENT_RETRY,
    call_with_retry,
    kill_worker,
    remote_sweep,
    service_stats,
)
from .coordinator import Coordinator, CoordinatorServer, free_port
from .frontend import Frontend, FrontendServer
from .journal import JobJournal, JournalError
from .wire import (
    PROTOCOL_VERSION,
    FrameCorrupted,
    FrameTooLarge,
    RemoteError,
    ServiceUnavailable,
    WireError,
    parse_address,
    request,
)
from .worker import Worker, run_worker

__all__ = [
    "PROTOCOL_VERSION",
    "WireError",
    "FrameTooLarge",
    "FrameCorrupted",
    "RemoteError",
    "ServiceUnavailable",
    "parse_address",
    "request",
    "Coordinator",
    "CoordinatorServer",
    "free_port",
    "JobJournal",
    "JournalError",
    "Worker",
    "run_worker",
    "remote_sweep",
    "service_stats",
    "kill_worker",
    "call_with_retry",
    "DEFAULT_CLIENT_RETRY",
    "Frontend",
    "FrontendServer",
]
