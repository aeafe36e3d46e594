"""Seeded, closed-loop load drivers for the end-to-end benchmark.

Each driver subclasses :class:`repro.apps.workloads.Workload`, so it plugs
into the simulated network stack exactly like the stock wrk/DBT2
generators: the kernel asks it for the next connection at ``accept`` and
it paces requests by watching the server's writes.  Every client is
closed loop — its next request goes out only after the previous response
— and the only thing the benchmark seed decides is the *plan*: how many
requests each connection (or terminal) sends.  No threads, no sockets:
everything runs inside the workload process.

Latency is sampled on the simulated clock (request delivery to the
response write) and is exact.  Host latency of the same span is sampled
with ``perf_counter_ns`` when ``host_clock`` is set (traced runs only).
The process's CPU clock is read after every ``WINDOWS``-th share of the
plan is answered, so throughput can be taken per window.
"""

import random
import statistics
import time

from repro.apps.nginx import NGINX_PORT, PAGE_BYTES
from repro.apps.sqlite import SQLITE_PORT
from repro.apps.workloads import (
    HTTP_REQUEST,
    NEWORDER_REQUEST,
    Dbt2Stats,
    LatencyStats,
    Workload,
    WrkStats,
)
from repro.kernel.net import BACKLOG_WAIT, Connection


#: throughput windows per plan
WINDOWS = 32


def exp_plan(seed, clients, mean):
    """``clients`` request counts, each ``1 + floor(Exp(mean))``."""
    rng = random.Random(seed)
    return [1 + int(rng.expovariate(1.0 / mean)) for _ in range(clients)]


def uniform_plan(seed, clients, low, high):
    """``clients`` request counts drawn uniformly from ``[low, high]``."""
    rng = random.Random(seed)
    return [rng.randint(low, high) for _ in range(clients)]


class PlannedDriver(Workload):
    """Closed-loop clients following a per-connection request plan.

    ``plan[i]`` is the number of requests connection ``i`` sends before it
    closes.  At most ``max_inflight`` connections are open at once; beyond
    that the backlog answers ``BACKLOG_WAIT`` until one closes.  Subclasses
    set the port, the request bytes and what counts as a response.
    """

    port = None
    request = b""
    peer_base = 40000

    def __init__(self, plan, max_inflight=None, host_clock=None):
        super().__init__()
        self.plan = list(plan)
        self.max_inflight = max_inflight or len(self.plan)
        self.host_clock = host_clock
        self.latency = LatencyStats()
        self.host_latency_ns = []
        #: CPU seconds of this process at the first backlog pull, which ends
        #: set-up; ``on_first_accept`` (if set) is called at that moment
        self.first_accept_cpu = None
        self.on_first_accept = None
        #: CPU clock after every ``window`` answers
        self.window = max(1, sum(self.plan) // WINDOWS)
        self.window_cpu = []
        self.peak_inflight = 0
        self.backlog_calls = 0
        self.backlog_waits = 0
        self.sent = 0
        self.answered = 0
        self._next = 0
        self._inflight = 0
        self._left = {}
        self._sent_at = {}
        self._host_sent_at = {}

    @property
    def planned(self):
        return sum(self.plan)

    def next_connection(self, sock):
        if self.first_accept_cpu is None:
            self.first_accept_cpu = time.process_time()
            if self.on_first_accept is not None:
                self.on_first_accept()
        self.backlog_calls += 1
        if sock.bound_port != self.port or self._next >= len(self.plan):
            return None
        if self._inflight >= self.max_inflight:
            self.backlog_waits += 1
            return BACKLOG_WAIT
        count = self.plan[self._next]
        self._next += 1
        self._inflight += 1
        self.peak_inflight = max(self.peak_inflight, self._inflight)
        conn = Connection(peer_port=self.peer_base + self._next % 20000)
        self._left[conn.serial] = count
        conn.on_server_write = self._on_write
        self._send(conn)
        return conn

    def _send(self, conn):
        self._left[conn.serial] -= 1
        self._sent_at[conn.serial] = self.now()
        if self.host_clock is not None:
            self._host_sent_at[conn.serial] = self.host_clock()
        self.sent += 1
        conn.deliver(self.request)

    def _on_write(self, conn, data_len, prefix):
        if not self.is_response(data_len):
            return
        self.answered += 1
        if self.answered % self.window == 0:
            self.window_cpu.append(time.process_time())
        sent = self._sent_at.pop(conn.serial, None)
        if sent is not None:
            self.latency.record(max(self.now() - sent, 0))
        if self.host_clock is not None:
            started = self._host_sent_at.pop(conn.serial, None)
            if started is not None:
                self.host_latency_ns.append(self.host_clock() - started)
        if self._left.get(conn.serial, 0) > 0:
            self._send(conn)
        else:
            self._left.pop(conn.serial, None)
            conn.closed = True
            self._inflight -= 1

    def is_response(self, data_len):
        return True

    def window_rate(self):
        """Median answers per CPU second over the plan's windows.

        Co-tenants of the machine slow it in bursts; the median over
        windows ignores bursts shorter than half the run.
        """
        times = [self.first_accept_cpu] + self.window_cpu
        rates = [self.window / (b - a) for a, b in zip(times, times[1:]) if b > a]
        return statistics.median(rates) if rates else 0.0


class PlannedWrk(PlannedDriver):
    """wrk: keep-alive GETs; a response is the page-body write.

    Blocking mode (``max_inflight`` = worker count) and C10k mode
    (``max_inflight`` in the thousands against one epoll worker) differ
    only in the in-flight cap and the server build.
    """

    port = NGINX_PORT
    request = HTTP_REQUEST

    def is_response(self, data_len):
        return data_len >= PAGE_BYTES // 2  # headers and log writes don't count

    @property
    def stats(self):
        """The stock wrk counters (the harness reads ``responses``)."""
        return WrkStats(self._next, self.sent, self.answered)


class PlannedDbt2(PlannedDriver):
    """DBT2 terminals sending NEWORDER transactions back to back."""

    port = SQLITE_PORT
    request = NEWORDER_REQUEST
    peer_base = 50000

    @property
    def stats(self):
        """The stock DBT2 counters (the harness reads ``transactions``)."""
        return Dbt2Stats(self._next, self.answered)
