"""Serve a builtin blackbox over the line protocol on stdin/stdout.

Usage:
    python -m cnma.serve <builtin> [json-params]

Reads requests of the form ``EVAL v1 <n> <x1> ... <xn>`` and answers with
``OK <m> <y1> ... <ym>`` or ``FAIL <message>``: exactly one line per
request, flushed immediately.  Exits on EOF.  This is a working example of
the external-blackbox contract, and `serve` is also the loop that the
harness's forked child runs for a builtin blackbox.
"""
from __future__ import annotations

import json
import sys

from .benchmarks import UnknownBuiltinError, get_builtin


def respond_to(line: str, fn, arity: int, params: dict) -> str:
    """The one-line answer to one request line."""
    parts = line.split()
    if len(parts) < 3 or parts[0] != "EVAL" or parts[1] != "v1":
        return "FAIL malformed request"
    try:
        n = int(parts[2])
    except ValueError:
        return "FAIL malformed count"
    values = parts[3:]
    if n != arity or len(values) != n:
        return f"FAIL expected {arity} inputs"
    try:
        x = [float(tok) for tok in values]
    except ValueError:
        return "FAIL malformed number"
    try:
        y = fn(x, **params)
        return "OK " + str(len(y)) + " " + " ".join(repr(float(v)) for v in y)
    except Exception as exc:  # noqa: BLE001 - report, do not crash the server
        text = f"FAIL {type(exc).__name__}: {exc}".encode("ascii", "backslashreplace")
        return " ".join(text.decode("ascii").split())


def serve(fn, arity: int, params: dict, requests, responses) -> None:
    """Answer each request line read from `requests` until end of file."""
    for line in requests:
        line = line.strip()
        if not line:
            continue
        responses.write(respond_to(line, fn, arity, params) + "\n")
        responses.flush()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or len(argv) > 2:
        print("usage: python -m cnma.serve <builtin> [json-params]", file=sys.stderr)
        return 2
    try:
        builtin = get_builtin(argv[0])
    except UnknownBuiltinError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    params = {}
    if len(argv) == 2:
        try:
            params = json.loads(argv[1])
        except json.JSONDecodeError as exc:
            print(f"bad params: {exc}", file=sys.stderr)
            return 2
        if not isinstance(params, dict):
            print("params must be a JSON object", file=sys.stderr)
            return 2
    serve(builtin.fn, builtin.in_arity, params, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
