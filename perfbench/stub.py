"""Loopback OpenAI-compatible completions stub with a fixed injected latency.

    python3 perfbench/stub.py --seed 1 --latency-ms 5 --workers 2 \
        --questions-per-facet 3

Listens on 127.0.0.1 on a free port and prints the port on its first
stdout line. `POST /v1/completions` answers from `script.completion_for`
after sleeping the injected latency; `GET /stats` returns what it has
served so far. At most `--workers` requests are in service at once.

Each response, headers and body, goes out in a single write: with separate
header and body writes (as `http.server` does) every keep-alive request
stalls about 45 ms on Nagle's algorithm against the client's delayed ACK.
"""
from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import signal
import socket
import sys
import time

import script


class Stub:
    def __init__(self, seed: int, latency: float, workers: int,
                 questions_per_facet: int):
        self.seed = seed
        self.latency = latency
        self.questions_per_facet = questions_per_facet
        self.slots = asyncio.Semaphore(workers)
        self.counts = {"gen": 0, "grade": 0, "other": 0}
        self.connections = 0
        self.open_connections = 0
        self.max_open_connections = 0
        # (sha1 of the prompt, seconds from request read to response write)
        self.served: list[tuple[str, float]] = []

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.connections += 1
        self.open_connections += 1
        self.max_open_connections = max(self.max_open_connections,
                                        self.open_connections)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                request_line, *header_lines = head.decode("latin-1").split("\r\n")
                method, path, _ = request_line.split(" ", 2)
                length = 0
                for line in header_lines:
                    name, _, value = line.partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length) if length else b""
                if method == "GET" and path == "/stats":
                    payload = self.stats()
                else:
                    async with self.slots:
                        payload = await self.complete(body)
                out = json.dumps(payload).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                    % len(out) + out)
                await writer.drain()
        finally:
            self.open_connections -= 1
            writer.close()

    async def complete(self, body: bytes) -> dict:
        start = time.perf_counter()
        prompt = json.loads(body)["prompt"]
        kind, text = script.completion_for(prompt, self.seed,
                                           self.questions_per_facet)
        self.counts[kind] += 1
        await asyncio.sleep(self.latency)
        self.served.append((hashlib.sha1(prompt.encode()).hexdigest(),
                            time.perf_counter() - start))
        return {"object": "text_completion",
                "choices": [{"index": 0, "text": text,
                             "finish_reason": "stop"}]}

    def stats(self) -> dict:
        return {"counts": self.counts,
                "connections": self.connections,
                "max_open_connections": self.max_open_connections,
                "served": self.served}


async def serve(args: argparse.Namespace) -> None:
    stub = Stub(args.seed, args.latency_ms / 1000.0, args.workers,
                args.questions_per_facet)
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0,
                                        backlog=args.workers)
    port = server.sockets[0].getsockname()[1]
    print(port, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    async with server:
        await stop.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--questions-per-facet", type=int, required=True)
    asyncio.run(serve(parser.parse_args()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
