"""Load generators: the wrk / DBT2 / dkftpbench stand-ins.

Each workload plugs into the simulated network stack as a *backlog
provider*: when the server calls ``accept``/``accept4`` the workload hands
it the next pending connection, and it paces requests by watching the
server's writes (keep-alive HTTP requests after each response body, the
next NEWORDER after each result, the next RETR after each ``226``).

All three record the cycle count at the first ``accept`` — the steady-state
marker the benches use so that initialization cost is excluded from
throughput, matching the paper's steady-state measurements.
"""

from dataclasses import dataclass

from repro.apps.nginx import NGINX_PORT, PAGE_BYTES
from repro.apps.sqlite import SQLITE_PORT
from repro.apps.vsftpd import FTP_PORT
from repro.kernel.net import BACKLOG_WAIT, Connection


class Workload:
    """Base: provider wiring + steady-state marker."""

    def __init__(self):
        self.kernel = None
        self.proc = None
        self.steady_start_cycles = None
        self.accepted = 0

    def attach(self, kernel, proc):
        """Install this workload as the kernel's backlog provider."""
        self.kernel = kernel
        self.proc = proc
        kernel.net.backlog_provider = self._provide
        return self

    def now(self):
        """Current cycle timestamp: the scheduler's global clock when one
        is driving, else the attached process's own ledger."""
        if self.kernel is not None:
            clock = self.kernel.clock()
            if clock is not None:
                return clock
        return self.proc.ledger.cycles if self.proc is not None else 0

    def _provide(self, sock):
        if self.steady_start_cycles is None:
            self.steady_start_cycles = self.now()
        conn = self.next_connection(sock)
        if conn is not None and conn is not BACKLOG_WAIT:
            self.accepted += 1
        return conn

    def next_connection(self, sock):  # pragma: no cover - interface
        raise NotImplementedError


class LatencyStats:
    """Per-request latency samples (cycles) with percentile summaries."""

    def __init__(self):
        self.samples = []

    def record(self, cycles):
        self.samples.append(cycles)

    def __len__(self):
        return len(self.samples)

    @staticmethod
    def _nearest_rank(ordered, p):
        if not ordered:
            return 0
        rank = int(round((p / 100.0) * (len(ordered) - 1)))
        return ordered[min(max(rank, 0), len(ordered) - 1)]

    def percentile(self, p):
        """Nearest-rank percentile over the recorded samples (cycles).

        Defined for every sample count: zero samples yield 0, a single
        sample is every percentile, and tied samples collapse to the tie
        value.  ``p`` outside [0, 100] clamps to the extremes.
        """
        return self._nearest_rank(sorted(self.samples), p)

    @property
    def mean(self):
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    def summary(self):
        ordered = sorted(self.samples)
        return {
            "count": len(ordered),
            "p50": self._nearest_rank(ordered, 50),
            "p95": self._nearest_rank(ordered, 95),
            "p99": self._nearest_rank(ordered, 99),
            "mean": self.mean,
            "max": ordered[-1] if ordered else 0,
        }


# ---------------------------------------------------------------------------
# wrk (HTTP keep-alive)
# ---------------------------------------------------------------------------

HTTP_REQUEST = b"GET /index.html HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"


@dataclass
class WrkStats:
    connections: int = 0
    requests_sent: int = 0
    responses: int = 0


class WrkWorkload(Workload):
    """Keep-alive HTTP load: N connections x M pipelined-one-at-a-time requests.

    A request is considered answered when the server writes the response
    *body* (>= half the static page); headers and log writes don't advance
    the state machine.
    """

    def __init__(self, connections=40, requests_per_connection=58, port=NGINX_PORT):
        super().__init__()
        self.connections = connections
        self.requests_per_connection = requests_per_connection
        self.port = port
        self.stats = WrkStats()
        self._remaining = connections
        self._pending = {}

    def next_connection(self, sock):
        if sock.bound_port != self.port or self._remaining <= 0:
            return None
        self._remaining -= 1
        self.stats.connections += 1
        conn = Connection(peer_port=40000 + self._remaining)
        self._pending[conn.serial] = self.requests_per_connection - 1
        conn.deliver(HTTP_REQUEST)
        self.stats.requests_sent += 1
        conn.on_server_write = self._on_write
        return conn

    def _on_write(self, conn, data_len, prefix):
        if data_len < PAGE_BYTES // 2:
            return  # headers / small writes
        self.stats.responses += 1
        left = self._pending.get(conn.serial, 0)
        if left > 0:
            self._pending[conn.serial] = left - 1
            conn.deliver(HTTP_REQUEST)
            self.stats.requests_sent += 1
        else:
            self._pending.pop(conn.serial, None)
            conn.closed = True


class SimpleServerWorkload(Workload):
    """Generic request/response driver for the attack-target servers.

    Delivers ``requests`` request messages per connection; the next request
    goes out after any server write of at least ``response_threshold``
    bytes.
    """

    def __init__(
        self,
        port,
        connections=2,
        requests=3,
        request=b"GET / HTTP/1.0\r\n\r\n",
        response_threshold=1,
    ):
        super().__init__()
        self.port = port
        self.connections = connections
        self.requests = requests
        self.request = request
        self.response_threshold = response_threshold
        self.responses = 0
        self._remaining = connections
        self._pending = {}

    def next_connection(self, sock):
        if sock.bound_port != self.port or self._remaining <= 0:
            return None
        self._remaining -= 1
        conn = Connection(peer_port=45000 + self._remaining)
        self._pending[conn.serial] = self.requests - 1
        conn.deliver(self.request)
        conn.on_server_write = self._on_write
        return conn

    def _on_write(self, conn, data_len, prefix):
        if data_len < self.response_threshold:
            return
        self.responses += 1
        left = self._pending.get(conn.serial, 0)
        if left > 0:
            self._pending[conn.serial] = left - 1
            conn.deliver(self.request)
        else:
            self._pending.pop(conn.serial, None)
            conn.closed = True


# ---------------------------------------------------------------------------
# DBT2 (new-order transaction mix)
# ---------------------------------------------------------------------------

NEWORDER_REQUEST = b"NEWORDER w=1 d=3 items=10\n"


@dataclass
class Dbt2Stats:
    terminals: int = 0
    transactions: int = 0


class Dbt2Workload(Workload):
    """DBT2-style terminals: each sends NEWORDER requests back-to-back."""

    def __init__(self, terminals=8, transactions_per_terminal=100, port=SQLITE_PORT):
        super().__init__()
        self.terminals = terminals
        self.transactions_per_terminal = transactions_per_terminal
        self.port = port
        self.stats = Dbt2Stats()
        self._remaining = terminals
        self._pending = {}

    def next_connection(self, sock):
        if sock.bound_port != self.port or self._remaining <= 0:
            return None
        self._remaining -= 1
        self.stats.terminals += 1
        conn = Connection(peer_port=50000 + self._remaining)
        self._pending[conn.serial] = self.transactions_per_terminal - 1
        conn.deliver(NEWORDER_REQUEST)
        conn.on_server_write = self._on_write
        return conn

    def _on_write(self, conn, data_len, prefix):
        self.stats.transactions += 1
        left = self._pending.get(conn.serial, 0)
        if left > 0:
            self._pending[conn.serial] = left - 1
            conn.deliver(NEWORDER_REQUEST)
        else:
            self._pending.pop(conn.serial, None)
            conn.closed = True


# ---------------------------------------------------------------------------
# dkftpbench (FTP downloads)
# ---------------------------------------------------------------------------

FTP_LOGIN = b"USER anonymous PASS dkftpbench\n"
FTP_RETR = b"RETR file.bin\n"
FTP_LIST = b"LIST\n"
FTP_QUIT = b"QUIT\n"


@dataclass
class FtpStats:
    sessions: int = 0
    transfers: int = 0
    data_connections: int = 0


class DkftpbenchWorkload(Workload):
    """Sequential FTP clients, each downloading the file several times.

    Control-channel pacing keys off the server's reply codes: ``230`` (login
    ok) triggers the first RETR, each ``226`` (transfer complete) triggers
    the next RETR or QUIT.  Data-channel connections are granted whenever
    the server accepts on a PASV port.
    """

    def __init__(
        self, sessions=12, files_per_session=6, lists_per_session=0, port=FTP_PORT
    ):
        super().__init__()
        self.sessions = sessions
        self.files_per_session = files_per_session
        self.lists_per_session = lists_per_session
        self.port = port
        self.stats = FtpStats()
        self._remaining = sessions
        self._files_left = {}
        self._lists_left = {}

    def next_connection(self, sock):
        if sock.bound_port == self.port:
            if self._remaining <= 0:
                return None
            self._remaining -= 1
            self.stats.sessions += 1
            conn = Connection(peer_port=60000 + self._remaining)
            self._files_left[conn.serial] = self.files_per_session
            self._lists_left[conn.serial] = self.lists_per_session
            conn.deliver(FTP_LOGIN)
            conn.on_server_write = self._on_control_write
            return conn
        # PASV data port: hand over a fresh data connection
        self.stats.data_connections += 1
        return Connection(peer_port=61000 + self.stats.data_connections)

    def _on_control_write(self, conn, data_len, prefix):
        code = prefix[:3]
        if code == b"230":
            self._send_next(conn)
        elif code == b"226":
            self.stats.transfers += 1
            self._send_next(conn)
        elif code == b"221":
            self._files_left.pop(conn.serial, None)
            self._lists_left.pop(conn.serial, None)
            conn.closed = True

    def _send_next(self, conn):
        lists = self._lists_left.get(conn.serial, 0)
        if lists > 0:
            self._lists_left[conn.serial] = lists - 1
            conn.deliver(FTP_LIST)
            return
        left = self._files_left.get(conn.serial, 0)
        if left > 0:
            self._files_left[conn.serial] = left - 1
            conn.deliver(FTP_RETR)
        else:
            conn.deliver(FTP_QUIT)


# ---------------------------------------------------------------------------
# concurrent variants (scheduler-driven multi-worker benches)
# ---------------------------------------------------------------------------


class ConcurrentWrkWorkload(Workload):
    """wrk with many connections genuinely in flight.

    The sequential :class:`WrkWorkload` hands the server a connection
    whenever it asks, so one accept loop drains the whole run.  This
    variant keeps at most ``max_inflight`` connections open and answers
    ``BACKLOG_WAIT`` while the cap is reached — parked accept loops in
    *other* workers wake as connections finish, which is what spreads the
    load across a scheduled worker pool.  Per-request latency is sampled
    on the global scheduler clock from request delivery to the
    response-*body* write (>= half the static page).

    The same cap doubles as the C10k knob for the event-loop benches:
    with ``max_inflight=10_000`` a single nonblocking accept burst pulls
    the whole backlog into one worker task, ``peak_inflight`` records the
    high-water concurrency actually reached, and ``connections >
    max_inflight`` produces churn (new connections admitted as earlier
    ones close).  Per-connection state is keyed on ``Connection.serial``
    (monotonic, never reused) and dropped at close, so bookkeeping stays
    bounded by the in-flight set, not the total connection count.
    """

    def __init__(
        self,
        connections=40,
        requests_per_connection=58,
        max_inflight=8,
        port=NGINX_PORT,
    ):
        super().__init__()
        self.connections = connections
        self.requests_per_connection = requests_per_connection
        self.max_inflight = max_inflight
        self.port = port
        self.stats = WrkStats()
        self.latency = LatencyStats()
        self._remaining = connections
        self._inflight = 0
        self.peak_inflight = 0
        self._pending = {}
        self._sent_at = {}

    def next_connection(self, sock):
        if sock.bound_port != self.port or self._remaining <= 0:
            return None
        if self._inflight >= self.max_inflight:
            return BACKLOG_WAIT
        self._remaining -= 1
        self._inflight += 1
        if self._inflight > self.peak_inflight:
            self.peak_inflight = self._inflight
        self.stats.connections += 1
        conn = Connection(peer_port=40000 + self._remaining)
        self._pending[conn.serial] = self.requests_per_connection - 1
        conn.on_server_write = self._on_write
        self._send(conn)
        return conn

    def _send(self, conn):
        self._sent_at[conn.serial] = self.now()
        self.stats.requests_sent += 1
        conn.deliver(HTTP_REQUEST)

    def _on_write(self, conn, data_len, prefix):
        if data_len < PAGE_BYTES // 2:
            return  # headers / small writes
        self.stats.responses += 1
        sent = self._sent_at.pop(conn.serial, None)
        if sent is not None:
            self.latency.record(max(self.now() - sent, 0))
        left = self._pending.get(conn.serial, 0)
        if left > 0:
            self._pending[conn.serial] = left - 1
            self._send(conn)
        else:
            self._pending.pop(conn.serial, None)
            conn.closed = True
            self._inflight -= 1
