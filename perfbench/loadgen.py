"""Load generation for ``serve_predict``: open and closed loops over HTTP.

The generator is one process with at most two threads (the host has two
cores).  The open loop sends on a fixed schedule, whether or not earlier
requests have come back, so a stall shows as latency on every request
behind it: each request is timed from the moment it was due, and the
generator's own lateness is recorded beside it.  The closed loop keeps
two connections busy back to back to measure capacity.

A request that fails, is refused (429) or answers wrongly counts as a
failure and as missing every latency limit: it enters the percentiles
as an infinite latency.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass

#: Request mix: counter-mode single, program-mode single, ``items`` batch.
MIX = (("counters", 0.45), ("program", 0.45), ("batch", 0.10))
BATCH_ITEMS = 8
TOP = 5
TIMEOUT_S = 10.0
#: No load phase may take longer than this.
PHASE_LIMIT_S = 60.0


@dataclass
class Request:
    rid: str
    kind: str
    #: per-item ``(mode, program index, machine index)``
    items: list
    body: bytes


@dataclass
class Record:
    request: Request
    due: float
    sent: float
    done: float
    status: int | None
    body: bytes | None
    ok: bool = False

    @property
    def latency(self) -> float:
        """Seconds from due to answer; infinite for a failed request."""
        return self.done - self.due if self.ok else math.inf


def corpus_of(training) -> dict:
    """The request corpus: the training grid's programs, machines and
    -O3 counter profiles, as JSON-ready values."""
    from dataclasses import asdict

    from repro.sim.counters import COUNTER_NAMES

    return {
        "programs": list(training.program_names),
        "machines": [asdict(machine) for machine in training.machines],
        "counters": [
            [
                dict(zip(COUNTER_NAMES, map(float, training.counters[p, m])))
                for m in range(len(training.machines))
            ]
            for p in range(len(training.program_names))
        ],
    }


def warmup_requests(corpus: dict) -> list[Request]:
    """One program-mode and one counter-mode request per program, so the
    server's -O3 compile memo is filled before anything is timed."""
    return [
        Request(f"w{mode}{program}", mode, [(mode, program, 0)],
                json.dumps(_entry(corpus, mode, program, 0), sort_keys=True).encode())
        for program in range(len(corpus["programs"]))
        for mode in ("program", "counters")
    ]


def _entry(corpus: dict, mode: str, program: int, machine: int) -> dict:
    payload = {"machine": corpus["machines"][machine], "top": TOP}
    payload["program"] = corpus["programs"][program]
    if mode == "counters":
        payload["counters"] = corpus["counters"][program][machine]
    return payload


def make_requests(corpus: dict, count: int, rng: random.Random, prefix: str) -> list[Request]:
    """``count`` requests drawn from ``corpus`` by the seeded ``rng``."""
    n_programs = len(corpus["programs"])
    n_machines = len(corpus["machines"])
    # Exact shares in a seeded order: a drawn mix would move the latency
    # percentiles with the number of batches the seed happened to draw.
    kinds = [kind for kind, share in MIX[1:] for _ in range(round(share * count))]
    kinds += [MIX[0][0]] * (count - len(kinds))
    rng.shuffle(kinds)

    def item(mode: str) -> tuple:
        return (mode, rng.randrange(n_programs), rng.randrange(n_machines))

    requests = []
    for index, kind in enumerate(kinds):
        if kind == "batch":
            items = [item(rng.choice(("counters", "program"))) for _ in range(BATCH_ITEMS)]
            payload = {"items": [_entry(corpus, *spec) for spec in items], "top": TOP}
        else:
            items = [item(kind)]
            payload = _entry(corpus, *items[0])
        body = json.dumps(payload, sort_keys=True).encode()
        requests.append(Request(f"{prefix}{index}", kind, items, body))
    return requests


def send(port: int, request: Request) -> tuple[int | None, bytes | None]:
    """POST one request; ``(None, None)`` when the connection fails."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        connection.request(
            "POST",
            "/predict",
            body=request.body,
            headers={"Content-Type": "application/json", "X-Request-Id": request.rid},
        )
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return None, None
    finally:
        connection.close()


def open_loop(port: int, requests: list[Request], rate: float, threads: int = 2) -> list[Record]:
    """Send ``requests`` at ``rate`` per second on a fixed schedule."""
    records: list[Record | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    start = time.monotonic() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            sent = time.monotonic()
            status, body = send(port, requests[index])
            records[index] = Record(requests[index], due, sent, time.monotonic(), status, body)

    _run_threads(worker, threads)
    return records


def closed_loop(port: int, requests: list[Request], connections: int = 2) -> tuple[list[Record], float]:
    """Send ``requests`` back to back over ``connections`` clients;
    returns the records and the phase's wall seconds."""
    records: list[Record | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent = time.monotonic()
            status, body = send(port, requests[index])
            records[index] = Record(requests[index], sent, sent, time.monotonic(), status, body)

    start = time.monotonic()
    _run_threads(worker, connections)
    return records, time.monotonic() - start


def _run_threads(target, count: int) -> None:
    workers = [threading.Thread(target=target, daemon=True) for _ in range(count)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(PHASE_LIMIT_S)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (``inf`` when it lands on a failure)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class Verifier:
    """Checks each response against the in-process answer.

    The reference is ``session.models.rank``/``rank_counters`` on the
    registry version the server promoted, serialised the way the service
    serialises it, minus the ``model`` stamp.
    """

    def __init__(self, session, corpus: dict, version: int):
        from repro.machine.params import MicroArch
        from repro.sim.counters import COUNTER_NAMES, PerfCounters
        from repro.service.service import canonical_json

        self._session = session
        self._corpus = corpus
        self._version = version
        self._canonical = canonical_json
        self._machine = MicroArch
        self._counters = PerfCounters
        self._counter_names = COUNTER_NAMES
        self._cache: dict[tuple, str] = {}

    def expected(self, spec: tuple) -> str:
        answer = self._cache.get(spec)
        if answer is None:
            mode, program, machine = spec
            name = self._corpus["programs"][program]
            arch = self._machine(**self._corpus["machines"][machine])
            models = self._session.models
            if mode == "counters":
                counters = self._counters(*(
                    self._corpus["counters"][program][machine][field]
                    for field in self._counter_names
                ))
                ranked = models.rank_counters(counters, arch, top=TOP, program=name)
            else:
                ranked = models.rank(name, arch, top=TOP)
            answer = self._cache[spec] = self._canonical(ranked.payload())
        return answer

    def check(self, record: Record) -> bool:
        """Whether ``record`` is a 200 whose payload equals the reference."""
        if record.status != 200 or record.body is None:
            return False
        try:
            payload = json.loads(record.body)
        except ValueError:
            return False
        model = payload.pop("model", None)
        if not isinstance(model, dict) or model.get("version") != self._version:
            return False
        if record.request.kind == "batch":
            results = payload.get("results")
            if not isinstance(results, list) or len(results) != len(record.request.items):
                return False
            return all(
                self._canonical(result) == self.expected(spec)
                for result, spec in zip(results, record.request.items)
            )
        return self._canonical(payload) == self.expected(record.request.items[0])
