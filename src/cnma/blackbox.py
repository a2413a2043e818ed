"""Blackbox evaluation harness: timeouts, accounting, subprocess protocol.

Builtin functions run in a persistent worker process so that a wall-clock
timeout can actually kill a non-terminating evaluation (a thread could not
be).  After a kill the worker is respawned on the next call; the parent-side
counter and sequence numbers are untouched by the kill.

Subprocess blackboxes speak a line protocol on stdin/stdout:

    request:   EVAL v1 <n> <x1> ... <xn>\n
    response:  OK <m> <y1> ... <ym>\n   or   FAIL <message>\n

Numbers are decimal text at full precision (repr round-trip).  A response
that cannot be parsed yields an Error outcome and kills the child, since a
later line could be the answer to this request; a timeout kills it too.
"""
from __future__ import annotations

import multiprocessing as mp
import os
import selectors
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .problem import BlackboxRef, VariableSpec

OK = "ok"
TIMEOUT = "timeout"
ERROR = "error"

TIMEOUT_ENV_VAR = "CNMA_EVAL_TIMEOUT_SECS"


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
    cols = []
    for v in inputs:
        draws = rng.uniform(v.lower, v.upper, size=int(n))
        if v.kind == "integer":
            draws = np.clip(np.rint(draws), v.lower, v.upper)
        cols.append(draws)
    return np.column_stack(cols) if cols else np.empty((int(n), 0))


def resolve_timeout(requested: float) -> float:
    """Apply the CNMA_EVAL_TIMEOUT_SECS environment override if parseable."""
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return requested


def _worker_main(conn, parent_end, builtin_id: str, params: dict) -> None:
    from .benchmarks import get_builtin

    # without this, the pipe would stay open here and never reach end of
    # file, and the worker would outlive a parent that died without closing
    parent_end.close()

    try:
        fn = get_builtin(builtin_id).fn
    except Exception as exc:  # unresolvable id: report on every request
        fn = None
        resolve_error = f"{type(exc).__name__}: {exc}"
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        if fn is None:
            conn.send((ERROR, resolve_error))
            continue
        try:
            y = fn(np.asarray(msg, dtype=float), **params)
            conn.send((OK, [float(v) for v in np.atleast_1d(np.asarray(y, dtype=float))]))
        except Exception as exc:
            conn.send((ERROR, f"{type(exc).__name__}: {exc}"))


class _BuiltinBackend:
    """Persistent forked worker evaluating a registered builtin."""

    def __init__(self, ref: BlackboxRef):
        from .benchmarks import get_builtin

        get_builtin(ref.target)  # fail fast on unknown ids
        self._ref = ref
        try:
            self._ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            self._ctx = mp.get_context("spawn")
        self._proc = None
        self._conn = None
        # spawn eagerly so fork cost is never attributed to the first call
        self._ensure_worker()

    def _ensure_worker(self) -> None:
        if self._proc is not None and self._proc.is_alive():
            return
        self._teardown()
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, parent, self._ref.target, dict(self._ref.params)),
            daemon=True,
        )
        proc.start()
        child.close()
        self._proc, self._conn = proc, parent

    def _teardown(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._proc = None
        self._conn = None

    def call(self, x: Sequence[float], timeout: float) -> tuple[str, list | str]:
        self._ensure_worker()
        try:
            self._conn.send(list(x))
        except (BrokenPipeError, OSError):
            self._teardown()
            return ERROR, "worker process died"
        if not self._conn.poll(timeout):
            self._teardown()
            return TIMEOUT, f"no result within {timeout} s"
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError):
            self._teardown()
            return ERROR, "worker process died"
        return status, payload

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if self._proc is not None:
            self._proc.join(timeout=1.0)
        self._teardown()


class _SubprocessBackend:
    """Line-protocol child process, killed and respawned on timeout."""

    def __init__(self, ref: BlackboxRef):
        self._argv = shlex.split(ref.target)
        if not self._argv:
            raise ValueError("empty subprocess command")
        self._proc: subprocess.Popen | None = None
        self._buffer = b""

    def _ensure_child(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        self._kill()
        self._buffer = b""
        self._proc = subprocess.Popen(
            self._argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,
        )

    def _kill(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        if self._proc is not None:
            for stream in (self._proc.stdin, self._proc.stdout):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass
        self._proc = None

    def _read_line(self, deadline: float) -> bytes | None:
        """One protocol line, or None on deadline expiry."""
        sel = selectors.DefaultSelector()
        sel.register(self._proc.stdout, selectors.EVENT_READ)
        try:
            while b"\n" not in self._buffer:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return None
                if not sel.select(remaining):
                    return None
                chunk = os.read(self._proc.stdout.fileno(), 65536)
                if not chunk:
                    raise EOFError
                self._buffer += chunk
        finally:
            sel.close()
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def call(self, x: Sequence[float], timeout: float) -> tuple[str, list | str]:
        self._ensure_child()
        request = "EVAL v1 {} {}\n".format(
            len(x), " ".join(repr(float(v)) for v in x)
        )
        deadline = time.perf_counter() + timeout
        try:
            self._proc.stdin.write(request.encode("ascii"))
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self._kill()
            return ERROR, "subprocess exited"
        try:
            line = self._read_line(deadline)
        except EOFError:
            self._kill()
            return ERROR, "subprocess exited"
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
        if self._proc is not None and self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=0.5)
            except subprocess.TimeoutExpired:
                pass
        self._kill()


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
        if timeout <= 0:
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

