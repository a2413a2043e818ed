"""Blackbox evaluation harness: timeouts, accounting, one line protocol.

Every blackbox runs in a child process, so that a wall-clock timeout can
actually kill a non-terminating evaluation (a thread could not be), and
every child speaks one line protocol on its stdin/stdout:

    request:   EVAL v1 <n> <x1> ... <xn>\n
    response:  OK <m> <y1> ... <ym>\n   or   FAIL <message>\n

A builtin's child is a fork of this process running `cnma.serve.serve`; a
command's child is the command.  Both start with the harness and again on
the first call after a kill or an exit; the counter and sequence numbers
are untouched by either.  Numbers are decimal text at full precision (repr
round-trip).  A response that cannot be parsed yields an Error outcome and
kills the child, since a later line could be the answer to this request; a
timeout kills it too.
"""
from __future__ import annotations

import math
import os
import select
import shlex
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .benchmarks import Builtin, get_builtin
from .problem import BlackboxRef, VariableSpec

OK = "ok"
TIMEOUT = "timeout"
ERROR = "error"

TIMEOUT_ENV_VAR = "CNMA_EVAL_TIMEOUT_SECS"
_POLL_SLICE_MS = 2**31 - 1  # the longest wait `poll` takes, about 24.8 days


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of one blackbox call.  y is None unless status == "ok"."""

    seq: int
    x: tuple[float, ...]
    status: str
    y: tuple[float, ...] | None = None
    message: str = ""
    wall_time: float = 0.0


@dataclass
class EvalCounter:
    total_calls: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0

    def record(self, status: str) -> None:
        self.total_calls += 1
        if status == OK:
            self.ok += 1
        elif status == TIMEOUT:
            self.timeouts += 1
        else:
            self.errors += 1


def sample_uniform(
    inputs: Sequence[VariableSpec],
    n: int,
    seed: int | np.random.Generator = 0,
) -> np.ndarray:
    """(n, d) array of uniform draws inside the variable boxes.

    Integer-kind variables are rounded to the nearest in-range integer.
    Deterministic for a fixed seed; also accepts a Generator so callers can
    thread one stream through repeated draws.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lower = np.array([v.lower for v in inputs], dtype=float)
    upper = np.array([v.upper for v in inputs], dtype=float)
    # one call, drawn variable by variable: the stream a per-variable loop reads
    draws = rng.uniform(lower[:, None], upper[:, None], size=(len(inputs), int(n))).T
    ints = [i for i, v in enumerate(inputs) if v.kind == "integer"]
    if ints:
        draws[:, ints] = np.clip(np.rint(draws[:, ints]), lower[ints], upper[ints])
    return draws


def resolve_timeout(requested: float) -> float:
    """Apply the CNMA_EVAL_TIMEOUT_SECS override if it is a positive finite number."""
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            value = float(raw)
            if value > 0 and math.isfinite(value):
                return value
        except ValueError:
            pass
    return requested


class _Fork:
    """A fork of this process running `serve`'s loop on two pipes.

    It has the part of `subprocess.Popen` the line path uses.  A fork skips
    the ~0.3 s interpreter start, which would count against the timeout of
    the first call after each (re)start.
    """

    def __init__(self, builtin: Builtin, params: dict):
        from .serve import serve  # not at the top: `python -m cnma.serve` imports this module

        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            # the pipes become stdin and stdout and nothing else stays open,
            # so the loop ends by end of file even if the parent dies
            try:
                os.dup2(req_r, 0)
                os.dup2(resp_w, 1)
                os.closerange(3, os.sysconf("SC_OPEN_MAX"))
                serve(builtin.fn, builtin.in_arity, params, open(0), open(1, "w"))
                os._exit(0)
            finally:
                os._exit(1)  # reached only by an exception
        os.close(req_r)
        os.close(resp_w)
        self.stdin = open(req_w, "wb", buffering=0)
        self.stdout = open(resp_r, "rb", buffering=0)
        self.returncode: int | None = None

    def poll(self, flags: int = os.WNOHANG) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, flags)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        return self.poll(0)

    def kill(self) -> None:
        os.kill(self.pid, signal.SIGKILL)


class _LineBackend:
    """One child speaking the line protocol on its stdin and stdout.

    The child starts with the backend and again on the first call after it
    was killed or exited.  Only the start differs by kind; perfbench wraps
    the two start hooks, `_ensure_worker` and `_ensure_child`, by name.
    """

    def __init__(self):
        self._proc = None
        self._buffer = b""
        self._start()

    def _start(self) -> None:
        """Set `self._proc` to a newly started child."""
        raise NotImplementedError

    def _ensure(self) -> None:
        if self._proc is None or self._proc.poll() is not None:
            self._kill()
            self._start()

    def _kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        if self._proc is not None:
            for stream in (self._proc.stdin, self._proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        self._proc = None
        self._buffer = b""

    def _read_line(self, deadline: float) -> bytes | None:
        """One protocol line, or None on deadline expiry."""
        # a poll object makes no system call of its own, unlike an epoll selector
        poller = select.poll()
        poller.register(self._proc.stdout, select.POLLIN)
        while b"\n" not in self._buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return None
            if not poller.poll(min(remaining * 1000.0, _POLL_SLICE_MS)):
                continue  # a slice ran out; the deadline decides
            chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                raise EOFError
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def call(self, x: Sequence[float], timeout: float) -> tuple[str, list | str]:
        try:
            self._ensure()
        except ValueError as exc:  # a command that no longer starts
            return ERROR, str(exc)
        request = "EVAL v1 {} {}\n".format(
            len(x), " ".join(repr(float(v)) for v in x)
        )
        deadline = time.perf_counter() + timeout
        try:
            self._proc.stdin.write(request.encode("ascii"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self._kill()
            return ERROR, "blackbox process exited"
        try:
            line = self._read_line(deadline)
        except EOFError:
            self._kill()
            return ERROR, "blackbox process exited"
        if line is None:
            self._kill()
            return TIMEOUT, f"no result within {timeout} s"
        try:
            return _parse_response(line)
        except _ProtocolError as exc:
            # out of step with the protocol: start over with a fresh child
            self._kill()
            return ERROR, f"parse: {exc}"

    def close(self) -> None:
        """Close the child's stdin, give it 0.5 s to end, then kill it."""
        if self._proc is not None and self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            end = time.monotonic() + 0.5
            while self._proc.poll() is None and time.monotonic() < end:
                time.sleep(0.001)
        self._kill()


class _BuiltinBackend(_LineBackend):
    """A registered builtin, served by a fork of this process."""

    def __init__(self, ref: BlackboxRef):
        self._builtin = get_builtin(ref.target)  # fail fast on unknown ids
        self._params = dict(ref.params)
        super().__init__()

    def _start(self) -> None:
        self._ensure_worker()

    def _ensure_worker(self) -> None:
        self._proc = _Fork(self._builtin, self._params)


class _SubprocessBackend(_LineBackend):
    """An external command, started with `subprocess.Popen`."""

    def __init__(self, ref: BlackboxRef):
        self._argv = shlex.split(ref.target)
        if not self._argv:
            raise ValueError("empty subprocess command")
        super().__init__()

    def _start(self) -> None:
        self._ensure_child()

    def _ensure_child(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                bufsize=0,
            )
        except OSError as exc:
            raise ValueError(
                f"cannot start blackbox command '{shlex.join(self._argv)}': {exc}"
            ) from None


class _ProtocolError(ValueError):
    pass


def _parse_response(line: bytes) -> tuple[str, list | str]:
    """(OK, values) or (ERROR, message) for FAIL; raises _ProtocolError."""
    try:
        text = line.decode("ascii").strip()
    except UnicodeDecodeError:
        raise _ProtocolError("response is not ascii") from None
    tokens = text.split()
    if not tokens:
        raise _ProtocolError("empty response line")
    if tokens[0] == "FAIL":
        return ERROR, " ".join(tokens[1:]) or "blackbox reported failure"
    if tokens[0] != "OK":
        raise _ProtocolError(f"unexpected response '{text[:200]}'")
    try:
        m = int(tokens[1])
        values = [float(t) for t in tokens[2 : 2 + m]]
    except (IndexError, ValueError):
        raise _ProtocolError(f"malformed OK response '{text[:200]}'") from None
    if len(values) != m or len(tokens) != 2 + m:
        raise _ProtocolError(f"arity mismatch in response '{text[:200]}'")
    return OK, values


class EvalHarness:
    """Evaluates a blackbox with timeout enforcement and call accounting.

    Every call increments the counter exactly once, timeouts and errors
    included.  Thread-safe; calls are serialized on an internal lock.
    """

    def __init__(self, ref: BlackboxRef, out_arity: int, timeout: float):
        if not timeout > 0:  # NaN too; inf means no limit
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.ref = ref
        self.out_arity = int(out_arity)
        self.timeout = resolve_timeout(float(timeout))
        self.counter = EvalCounter()
        self._lock = threading.Lock()
        self._seq = 0
        if ref.kind == "builtin":
            self._backend = _BuiltinBackend(ref)
        elif ref.kind == "subprocess":
            self._backend = _SubprocessBackend(ref)
        else:
            raise ValueError(f"unknown blackbox kind '{ref.kind}'")

    def evaluate(self, x: Sequence[float]) -> EvalRecord:
        xs = tuple(float(v) for v in x)
        start = time.perf_counter()
        with self._lock:
            self._seq += 1
            seq = self._seq
            status, payload = self._backend.call(xs, self.timeout)
            wall = time.perf_counter() - start
            y = None
            message = ""
            if status == OK:
                values = list(payload)
                if len(values) != self.out_arity:
                    status, message = ERROR, (
                        f"arity: expected {self.out_arity} outputs, got {len(values)}"
                    )
                elif not all(np.isfinite(values)):
                    status, message = ERROR, f"non-finite output {values}"
                else:
                    y = tuple(values)
            else:
                message = str(payload)
            self.counter.record(status)
            return EvalRecord(seq, xs, status, y, message, wall)

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "EvalHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

