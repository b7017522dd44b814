#!/usr/bin/env python3
"""Wire-level chaos harness for `tybec serve` (DESIGN.md §16).

Throws adversarial traffic at a live daemon and asserts the one
invariant the self-healing stack promises: EVERY request ends in a
typed protocol response, a typed HTTP error, or a documented abort
(connection closed by a deliberately killed shard) — never a hang and
never an untyped body.

Phases (wire phases run against --addr; shard phases need --admin,
the supervisor's aggregated endpoint of a `--shards N` front):

  ok          well-formed requests answer typed 200s
  malformed   garbage JSON / wrong version / unknown op → typed 400
  oversize    Content-Length over the body cap → typed 413, immediately
  truncated   Content-Length promises more bytes than ever arrive
              → typed 408 when the server's read deadline fires
  slowloris   headers dribbled byte-by-byte → typed 408, concurrently
  partial     valid bytes in tiny delayed writes → typed 200
  deadline    deadline_ms=1 on a real evaluation → typed timeout,
              HTTP 504 (or a typed ok when a warm cache hit wins)
  sigkill     a plain explore on shards started with
              TYTRA_FAULT_SPEC=crash_at=N, whose shard SIGKILLs itself
              inside the sweep: the socket closes instead of hanging,
              what arrives is a whole typed reply or nothing, and the
              supervisor restarts the shard
  journal     after the restart, the warmed request is served from the
              journaled response cache (engine.response_cache.hits > 0
              on the restarted shard with zero misses — needs the
              daemon running with --cache-journal)

Exit 0 iff no hangs, no untyped answers and every phase assertion
holds. Stdlib only; seedable (--seed) for the randomized bodies.

Usage:
  chaos_serve.py --addr 127.0.0.1:9470 [--admin 127.0.0.1:9471]
                 [--seed 42] [--skip slowloris,truncated] [--verbose]
"""

import argparse
import json
import random
import socket
import sys
import threading
import time

# The server reads a request under a 10s deadline; anything that takes
# longer than deadline + margin is a hang.
SERVER_READ_DEADLINE_S = 10.0
HANG_TIMEOUT_S = SERVER_READ_DEADLINE_S + 8.0

ACCT = {
    "sent": 0,
    "typed_ok": 0,
    "typed_error": 0,
    "aborted_by_crash": 0,
    "untyped": 0,
    "hung": 0,
}
ACCT_LOCK = threading.Lock()
FAILURES = []


def acct(kind):
    with ACCT_LOCK:
        ACCT[kind] += 1


def fail(msg):
    with ACCT_LOCK:
        FAILURES.append(msg)
    print(f"chaos: FAIL: {msg}", file=sys.stderr)


def parse_addr(addr):
    host, _, port = addr.rpartition(":")
    return (host or "127.0.0.1", int(port))


def recv_all(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def split_response(raw):
    """-> (status, body) or None when raw is not an HTTP response."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        return None
    parts = head.split(b" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        return None
    return int(parts[1]), body


def is_typed(body):
    """A typed protocol body: one JSON object with a v/status envelope."""
    try:
        obj = json.loads(body.decode("utf-8", errors="strict"))
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(obj, dict) and obj.get("v") == 1 and "status" in obj:
        return obj
    return None


def classify(raw, *, crash_ok=False, what=""):
    """Account one finished exchange; returns the typed object or None."""
    if raw == b"":
        if crash_ok:
            acct("aborted_by_crash")
            return None
        acct("untyped")
        fail(f"{what}: connection closed with no response at all")
        return None
    parsed = split_response(raw)
    if parsed is None:
        if crash_ok:
            # a shard killed mid-write may leave a torn head
            acct("aborted_by_crash")
            return None
        acct("untyped")
        fail(f"{what}: unparseable HTTP response {raw[:80]!r}")
        return None
    status, body = parsed
    obj = is_typed(body)
    if obj is None:
        if crash_ok:
            acct("aborted_by_crash")
            return None
        acct("untyped")
        fail(f"{what}: HTTP {status} with untyped body {body[:120]!r}")
        return None
    acct("typed_ok" if obj.get("status") == "ok" else "typed_error")
    return obj


def exchange(addr, payload, *, crash_ok=False, what="", chunked=None,
             account=True):
    """Send raw bytes, read to EOF under the hang timeout, classify.

    With account=False nothing is recorded: the mode for polling probes
    during a recovery window, where a refused/failed exchange is an
    expected transient, not a verdict."""
    if account:
        acct("sent")
    try:
        sock = socket.create_connection(parse_addr(addr), timeout=HANG_TIMEOUT_S)
    except OSError as exc:
        if account:
            acct("untyped")
            fail(f"{what}: connect failed: {exc}")
        return None
    try:
        sock.settimeout(HANG_TIMEOUT_S)
        if chunked is None:
            sock.sendall(payload)
        else:
            size, delay = chunked
            for i in range(0, len(payload), size):
                sock.sendall(payload[i : i + size])
                time.sleep(delay)
        try:
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        raw = recv_all(sock)
    except socket.timeout:
        if account:
            acct("hung")
            fail(f"{what}: no response within {HANG_TIMEOUT_S:.0f}s (hang)")
        return None
    except OSError as exc:
        if account:
            if crash_ok:
                acct("aborted_by_crash")
            else:
                acct("untyped")
                fail(f"{what}: socket error {exc}")
        return None
    finally:
        sock.close()
    if not account:
        parsed = split_response(raw)
        return is_typed(parsed[1]) if parsed else None
    return classify(raw, crash_ok=crash_ok, what=what)


def http(body, path="/v1/submit", meth="POST", content_length=None):
    length = len(body) if content_length is None else content_length
    head = f"{meth} {path} HTTP/1.0\r\nContent-Length: {length}\r\n\r\n"
    return head.encode() + body


COST_INLINE = (
    "%m = memobj global ui18 size 8\\n"
    "define void @main (ui18 %p) seq { }\\n"
)


def cost_request(nki=1, deadline_ms=None):
    req = {
        "v": 1,
        "op": "cost",
        "source": {"inline": COST_INLINE.replace("\\n", "\n")},
        "nki": nki,
    }
    if deadline_ms is not None:
        req["deadline_ms"] = deadline_ms
    return json.dumps(req).encode()


def explore_request(size=12, max_lanes=8):
    return json.dumps(
        {
            "v": 1,
            "op": "explore",
            "kernel": "hotspot",
            "size": size,
            "max_lanes": max_lanes,
            "nki": 1,
        }
    ).encode()


# ------------------------------------------------------------------ #
# Wire phases                                                         #
# ------------------------------------------------------------------ #


def phase_ok(addr, verbose):
    for i in range(4):
        obj = exchange(addr, http(cost_request(nki=1 + i)), what="ok")
        if obj is not None and obj.get("status") != "ok":
            fail(f"ok: expected a typed ok, got {obj}")
    if verbose:
        print("chaos: phase ok done")


def phase_malformed(addr, rng, verbose):
    bodies = [
        b"",
        b"hunter2",
        b'{"v":1,',
        b"null",
        b'{"v":9,"op":"check"}',
        b'{"v":1,"op":"transmogrify"}',
        b'{"v":1,"op":"cost","source":{}}',
        bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 200))),
    ]
    for body in bodies:
        obj = exchange(addr, http(body), what=f"malformed {body[:24]!r}")
        if obj is not None and obj.get("status") != "error":
            fail(f"malformed: {body[:40]!r} was accepted: {obj}")
    # a malformed request LINE never reaches the protocol layer; the
    # wire responder must still answer it typed
    obj = exchange(addr, b"garbage\r\n\r\n", what="malformed request line")
    if obj is not None and obj.get("status") != "error":
        fail("malformed request line was accepted")
    if verbose:
        print("chaos: phase malformed done")


def phase_oversize(addr, verbose):
    t0 = time.monotonic()
    obj = exchange(
        addr,
        http(b"xx", content_length=64 * 1024 * 1024),
        what="oversize",
    )
    took = time.monotonic() - t0
    if obj is not None and obj.get("error") != "request_too_large":
        fail(f"oversize: expected request_too_large, got {obj}")
    if took > 5.0:
        fail(f"oversize: answer took {took:.1f}s — body was read, not refused")
    if verbose:
        print("chaos: phase oversize done")


def phase_truncated(addr):
    # promises 512 bytes, delivers 10, then stays silent (no shutdown —
    # shutdown would look like a clean EOF, not a stall)
    acct("sent")
    what = "truncated"
    try:
        sock = socket.create_connection(parse_addr(addr), timeout=HANG_TIMEOUT_S)
        sock.settimeout(HANG_TIMEOUT_S)
        sock.sendall(b"POST /v1/submit HTTP/1.0\r\nContent-Length: 512\r\n\r\n" + b"x" * 10)
        raw = recv_all(sock)
        sock.close()
    except socket.timeout:
        acct("hung")
        fail(f"{what}: no response within {HANG_TIMEOUT_S:.0f}s (hang)")
        return
    except OSError as exc:
        acct("untyped")
        fail(f"{what}: socket error {exc}")
        return
    obj = classify(raw, what=what)
    if obj is not None and obj.get("status") != "error":
        fail(f"{what}: expected a typed error, got {obj}")


def phase_slowloris(addr):
    acct("sent")
    what = "slowloris"
    head = b"POST /v1/submit HTTP/1.0\r\nContent-Length: 5\r\n\r\n"
    try:
        sock = socket.create_connection(parse_addr(addr), timeout=HANG_TIMEOUT_S)
        sock.settimeout(HANG_TIMEOUT_S)
        deadline = time.monotonic() + SERVER_READ_DEADLINE_S + 3.0
        raw = b""
        for byte in head:
            sock.sendall(bytes([byte]))
            time.sleep(0.35)
            if time.monotonic() > deadline:
                break
            # the server may answer mid-dribble; poll without blocking
            sock.setblocking(False)
            try:
                chunk = sock.recv(65536)
                if chunk == b"":
                    break
                raw += chunk
            except (BlockingIOError, OSError):
                pass
            finally:
                sock.setblocking(True)
                sock.settimeout(HANG_TIMEOUT_S)
        if not raw:
            raw = recv_all(sock)
        sock.close()
    except socket.timeout:
        acct("hung")
        fail(f"{what}: no response within {HANG_TIMEOUT_S:.0f}s (hang)")
        return
    except OSError as exc:
        acct("untyped")
        fail(f"{what}: socket error {exc}")
        return
    obj = classify(raw, what=what)
    if obj is not None and obj.get("status") != "error":
        fail(f"{what}: expected a typed error, got {obj}")


def phase_partial(addr, verbose):
    obj = exchange(
        addr,
        http(cost_request(nki=2)),
        what="partial writes",
        chunked=(7, 0.01),
    )
    if obj is not None and obj.get("status") != "ok":
        fail(f"partial: expected typed ok, got {obj}")
    if verbose:
        print("chaos: phase partial done")


def phase_deadline(addr, verbose):
    obj = exchange(addr, http(cost_request(deadline_ms=1)), what="deadline")
    if obj is not None and obj.get("status") == "error":
        kind = obj.get("error")
        if kind != "timeout":
            fail(f"deadline: expected timeout, got {kind}")
    # a 1ms budget may still win the race on a warm cache hit — a typed
    # ok is acceptable, an untyped anything is not
    if verbose:
        print("chaos: phase deadline done")


# ------------------------------------------------------------------ #
# Shard phases (need --admin)                                         #
# ------------------------------------------------------------------ #


def admin_json(admin, path):
    try:
        sock = socket.create_connection(parse_addr(admin), timeout=8.0)
        sock.settimeout(8.0)
        sock.sendall(f"GET {path} HTTP/1.0\r\n\r\n".encode())
        raw = recv_all(sock)
        sock.close()
    except OSError:
        return None
    parsed = split_response(raw)
    if parsed is None or parsed[0] != 200:
        return None
    try:
        return json.loads(parsed[1].decode())
    except ValueError:
        return None


def shard_states(admin):
    doc = admin_json(admin, "/metrics.json")
    if doc is None or "shards" not in doc:
        return None
    return doc["shards"]


def shard_counter(shard_obj, name):
    try:
        return shard_obj["metrics"]["counters"].get(name, 0)
    except (KeyError, TypeError):
        return 0


def wait_for(pred, timeout_s, interval_s=0.3):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = pred()
        if value:
            return value
        time.sleep(interval_s)
    return None


def phase_sigkill(addr, admin, verbose):
    shards = shard_states(admin)
    if not shards:
        fail("sigkill: cannot read shard states from the admin endpoint")
        return
    before = {s["pid"] for s in shards}
    # A plain explore. Cost requests evaluate no design point, so under
    # crash_at=1 this is the first explore its shard runs, and the shard
    # SIGKILLs itself at the sweep's Pipe point, before it writes a byte
    # of the reply: the socket must end, with nothing on it.
    acct("sent")
    what = "sigkill mid-explore"
    try:
        sock = socket.create_connection(parse_addr(addr), timeout=HANG_TIMEOUT_S)
        sock.settimeout(HANG_TIMEOUT_S)
        sock.sendall(http(explore_request(size=16, max_lanes=16)))
        sock.shutdown(socket.SHUT_WR)
        raw = recv_all(sock)  # must EOF promptly, not hang
        sock.close()
    except socket.timeout:
        acct("hung")
        fail(f"{what}: socket still open {HANG_TIMEOUT_S:.0f}s after the request")
        return
    except OSError:
        raw = b""
    crashed = raw == b""
    if crashed:
        acct("aborted_by_crash")
        if verbose:
            print("chaos: the explore's shard died inside the request")
    else:
        # a shard that did not crash answered whole; anything short of a
        # typed reply is a torn one
        classify(raw, what=what)
    # the supervisor must bring the shards back, with a new pid for the
    # one that died
    def recovered():
        now = shard_states(admin)
        return (
            bool(now)
            and all(s.get("state") == "up" for s in now)
            and (not crashed or any(s["pid"] not in before for s in now))
        )

    if not wait_for(recovered, timeout_s=30.0):
        fail("sigkill: shards did not return to state=up within 30s")
        return
    # and the front must answer typed again (the restarted shard or the
    # breaker may answer first — both are typed)
    obj = wait_for(
        lambda: exchange(
            addr, http(cost_request()), what="post-restart", account=False
        ),
        timeout_s=20.0,
        interval_s=0.5,
    )
    if obj is None:
        fail("sigkill: no typed answer after restart")
    else:
        # one accounted exchange against the recovered front
        exchange(addr, http(cost_request()), what="post-restart")
    if verbose:
        print("chaos: phase sigkill done")


def phase_journal(addr, admin, verbose):
    import os
    import signal

    warm = http(cost_request(nki=7))

    def cache_traffic(s):
        return shard_counter(s, "engine.response_cache.hits") + shard_counter(
            s, "engine.response_cache.misses"
        )

    # warm every shard: the kernel balances accepts, so spray until each
    # up shard has served the warm request at least once (a miss inserts
    # it into cache + journal; a hit means a previous run's journal
    # already replayed it — both leave it journaled). Baselines are per
    # pid: a restart resets the shard's counters.
    base = {}

    def all_warm():
        for _ in range(4):
            exchange(addr, warm, what="journal warm", account=False)
        shards = shard_states(admin) or []
        if not shards:
            return False
        served = True
        for s in shards:
            if not s.get("up"):
                return False
            traffic = cache_traffic(s)
            if s["pid"] not in base:
                base[s["pid"]] = traffic
                served = False
            elif traffic <= base[s["pid"]]:
                served = False
        return served

    if not wait_for(all_warm, timeout_s=30.0, interval_s=0.2):
        fail("journal: could not warm every shard's response cache")
        return
    victims = wait_for(
        lambda: [
            s
            for s in (shard_states(admin) or [])
            if s.get("state") == "up" and s.get("up")
        ],
        timeout_s=15.0,
    )
    if not victims:
        fail("journal: no shard up to kill")
        return
    victim = victims[0]
    try:
        os.kill(victim["pid"], signal.SIGKILL)
    except OSError as exc:
        fail(f"journal: cannot kill shard {victim['shard']}: {exc}")
        return
    if verbose:
        print(f"chaos: killed shard {victim['shard']} (pid {victim['pid']})")

    def restarted():
        for s in shard_states(admin) or []:
            if (
                s["shard"] == victim["shard"]
                and s.get("up")
                and s["pid"] != victim["pid"]
                and shard_counter(s, "engine.journal.replayed") >= 1
            ):
                return s
        return None

    fresh = wait_for(restarted, timeout_s=30.0)
    if fresh is None:
        fail("journal: restarted shard did not replay its journal within 30s")
        return
    base_miss = shard_counter(fresh, "engine.response_cache.misses")

    # only the warmed request is in flight now: the restarted shard's
    # first service of it must be a journal-warmed HIT, not a miss
    def hit_on_restarted():
        exchange(addr, warm, what="journal replay probe", account=False)
        for s in shard_states(admin) or []:
            if s["shard"] == victim["shard"] and s.get("up"):
                if shard_counter(s, "engine.response_cache.hits") >= 1:
                    return s
        return None

    served = wait_for(hit_on_restarted, timeout_s=30.0, interval_s=0.2)
    if served is None:
        fail(
            "journal: restarted shard never served the warmed request "
            "from its journaled cache"
        )
        return
    miss_now = shard_counter(served, "engine.response_cache.misses")
    if miss_now > base_miss:
        fail(
            f"journal: restarted shard re-evaluated the warmed request "
            f"(misses {base_miss} -> {miss_now})"
        )
    elif verbose:
        print(
            f"chaos: restarted shard {victim['shard']} served the warmed "
            f"request from the journal (hits="
            f"{shard_counter(served, 'engine.response_cache.hits')}, "
            f"misses={miss_now})"
        )


# ------------------------------------------------------------------ #


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--addr", required=True, help="work address HOST:PORT")
    ap.add_argument("--admin", help="supervisor admin address HOST:PORT")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument(
        "--skip",
        default="",
        help="comma-separated phases to skip "
        "(ok,malformed,oversize,truncated,slowloris,partial,deadline,"
        "sigkill,journal)",
    )
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    skip = {s.strip() for s in args.skip.split(",") if s.strip()}

    if "ok" not in skip:
        phase_ok(args.addr, args.verbose)
    if "malformed" not in skip:
        phase_malformed(args.addr, rng, args.verbose)
    if "oversize" not in skip:
        phase_oversize(args.addr, args.verbose)
    if "deadline" not in skip:
        phase_deadline(args.addr, args.verbose)
    if "partial" not in skip:
        phase_partial(args.addr, args.verbose)

    # the stall phases each sit out the server's 10s read deadline —
    # run them concurrently so the harness stays fast
    stall = []
    if "truncated" not in skip:
        stall.append(threading.Thread(target=phase_truncated, args=(args.addr,)))
    if "slowloris" not in skip:
        stall.append(threading.Thread(target=phase_slowloris, args=(args.addr,)))
    for t in stall:
        t.start()
    for t in stall:
        t.join()
    if stall and args.verbose:
        print("chaos: stall phases done")

    if args.admin:
        if "sigkill" not in skip:
            phase_sigkill(args.addr, args.admin, args.verbose)
        if "journal" not in skip:
            phase_journal(args.addr, args.admin, args.verbose)

    print(
        "chaos: accounting: "
        + " ".join(f"{k}={v}" for k, v in ACCT.items())
    )
    if ACCT["hung"] or ACCT["untyped"] or FAILURES:
        print(f"chaos: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("chaos: clean — every request ended typed or documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
