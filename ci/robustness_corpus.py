#!/usr/bin/env python3
"""Adversarial corpus driver for the giad serving daemon.

Feeds a running daemon the full torture corpus -- deep-nesting JSON bombs,
multi-megabyte request lines, truncated frames, binary garbage, slow-loris
connections, mid-response disconnects, flow requests whose grid
dimensions are below 1, knobs outside their range, knobs of the wrong
JSON kind and mistyped search/verb scalars -- and asserts after every attack that the daemon
still answers a ping on a fresh connection and that its stats counters
account for the rejections. Intended to run against an
ASan+UBSan giad in CI (the sanitizers turn latent memory bugs into crashes
this script then reports), but works against any build:

    giad --port 0 --cache-dir - --idle-timeout-ms 1500 > giad.out &
    python3 ci/robustness_corpus.py --port $(parsed from giad.out)

Every socket operation here carries a hard timeout: if the daemon hangs, the
script fails fast instead of wedging the CI job (the workflow adds a second
watchdog via `timeout(1)` for defence in depth). Exit code 0 = daemon
survived the corpus; 1 = a contract was violated; stderr says which.
"""

import argparse
import json
import socket
import sys
import time

FAILURES = []


def fail(what):
    FAILURES.append(what)
    print(f"robustness_corpus: FAIL: {what}", file=sys.stderr)


def ok(what):
    print(f"robustness_corpus: ok: {what}")


def connect(port, timeout_s=10.0):
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
    s.settimeout(timeout_s)
    return s


def roundtrip(port, line, timeout_s=60.0):
    """One request line -> one response line on a fresh connection."""
    with connect(port, timeout_s) as s:
        s.sendall(line + b"\n")
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
        return buf.split(b"\n", 1)[0]


def expect_alive(port, context):
    try:
        resp = roundtrip(port, b'{"ping":true}', timeout_s=15.0)
    except OSError as e:
        fail(f"daemon unreachable after {context}: {e}")
        return False
    if b'"pong":true' not in resp:
        fail(f"bad ping response after {context}: {resp[:200]!r}")
        return False
    ok(f"daemon alive after {context}")
    return True


def get_stats(port):
    resp = roundtrip(port, b'{"stats":true}', timeout_s=15.0)
    return json.loads(resp)["stats"]


def attack_deep_nesting(port):
    """>=100k-deep arrays: must come back as a parse error, not a crash."""
    bomb = b"[" * 100_000 + b"]" * 100_000
    resp = roundtrip(port, bomb)
    if b'"ok":false' not in resp or b"nesting too deep" not in resp:
        fail(f"nesting bomb not rejected cleanly: {resp[:200]!r}")
    else:
        ok("100k-deep nesting bomb rejected with a structured error")


def attack_huge_line(port):
    """A 10 MB request line: rejected at the line cap, connection closed."""
    with connect(port, timeout_s=60.0) as s:
        payload = b"x" * (10 * 1024 * 1024)
        try:
            s.sendall(payload)
        except OSError:
            pass  # daemon may close mid-send once the cap trips; that's fine
        try:
            resp = s.recv(65536)
        except OSError:
            resp = b""
    if b"request line too long" in resp:
        ok("10 MB line rejected with 'request line too long'")
    else:
        # The rejection may have raced the send; the stats check below still
        # verifies it was counted.
        ok("10 MB line dropped (response not observed; will check counters)")


def attack_truncated_frames(port):
    """Bytes then abrupt close, never a newline. Repeated."""
    for payload in (b"{", b'{"flow_request":{"tech":"gl', b'{"ping":tru'):
        with connect(port) as s:
            s.sendall(payload)
            # close() without a newline: the daemon must just drop it
    ok("truncated frames sent")


def attack_binary_garbage(port):
    """Non-UTF8 garbage with an embedded newline: a structured parse error."""
    garbage = bytes((i * 37) % 256 for i in range(512)).replace(b"\n", b"\xff")
    resp = roundtrip(port, garbage)
    if b'"ok":false' not in resp:
        fail(f"binary garbage not rejected cleanly: {resp[:200]!r}")
    else:
        ok("binary garbage rejected with a structured error")


def attack_slow_loris(port, idle_timeout_ms):
    """Trickle a byte at a time, then stall: the idle deadline must reap us."""
    deadline_s = max(8.0, idle_timeout_ms / 1000.0 * 6)
    s = connect(port, timeout_s=deadline_s)
    try:
        for b in b'{"ping"':
            s.sendall(bytes([b]))
            time.sleep(0.05)
        t0 = time.monotonic()
        try:
            resp = s.recv(65536)  # blocks until the server closes us
        except OSError:
            resp = b""
        held = time.monotonic() - t0
        if held >= deadline_s - 0.5:
            fail(f"slow-loris connection held for {held:.1f}s without being reaped")
        elif b"idle timeout" in resp:
            ok(f"slow-loris reaped by idle timeout after {held:.1f}s")
        else:
            ok(f"slow-loris connection closed after {held:.1f}s")
    finally:
        s.close()


def attack_mid_response_disconnect(port):
    """Fire a real flow request and vanish before the response lands."""
    with connect(port) as s:
        s.sendall(b'{"flow_request":{"tech":"shinko"},"result":true}\n')
        # close immediately: the daemon's send fails; the flow result must
        # still be computed and cached without wedging the worker
    ok("mid-response disconnect sent")


def attack_bad_protocol_lines(port):
    """A batch of well-formed-enough lines that each must earn a structured
    rejection (and a protocol_errors tick)."""
    lines = [
        b"not json at all",
        b"[1,2,3]",
        b'{"flow_request":{"tech":"unobtainium"}}',
        b'{"flow_request":{"bogus":1}}',
        b'{"frobnicate":true}',
        b'{"flow_request":{"tech":"glass3d"},"priority":"high"}',
        b'{"flow_request":{"tech":"glass3d"},"deadline_ms":-5}',
        b'{"flow_request":{"openpiton":{"seed":01}}}',
        b"1e",
        b"-",
        # The bare verbs take only `id`: an extra field, or a second verb
        # (which must not drain the daemon), is an unknown field.
        b'{"ping":true,"bogus":1}',
        b'{"stats":true,"bogus":1}',
        b'{"shutdown":true,"bogus":1}',
        b'{"ping":true,"shutdown":true}',
        # No verb at all, and two verbs on one line: the first verb in the
        # daemon's verb table answers and rejects the second by name.
        b'{"id":1}',
        b'{"flow_request":{},"search":{"space":{"tech":["glass25d"]}}}',
        b'{"search_cancel":1,"search_refine":1}',
        # deadline_ms is read in [0, 2147483647]; a larger value once
        # overflowed the deadline arithmetic (UBSan: signed overflow).
        b'{"flow_request":{"tech":"glass3d"},"deadline_ms":9223372036854775807}',
        b'{"search":{"space":{"tech":["glass25d"]}},"deadline_ms":9223372036854775807}',
    ]
    for line in lines:
        resp = roundtrip(port, line)
        if b'"ok":false' not in resp or b'"error":' not in resp:
            fail(f"line {line[:60]!r} not rejected cleanly: {resp[:200]!r}")
    ok(f"{len(lines)} malformed protocol lines all rejected with structured errors")
    return len(lines)


def attack_bad_grid_dimensions(port):
    """Grid dimensions below 1 used to crash the daemon (SIGSEGV) or leak a
    libstdc++ message; each must fail its own request with a structured
    error naming the knob."""
    cases = [
        (b'{"flow_request":{"tech":"glass25d","router":{"grid_nx":0}},"result":false}',
         b"router.grid_nx"),
        (b'{"flow_request":{"tech":"glass25d","router":{"grid_nx":-3}},"result":false}',
         b"router.grid_nx"),
        (b'{"flow_request":{"with_thermal":true,"thermal_mesh":{"nx":0}},"result":false}',
         b"thermal_mesh.nx"),
    ]
    for line, knob in cases:
        resp = roundtrip(port, line, timeout_s=300.0)
        if b'"ok":false' not in resp or b'"status":"failed"' not in resp or knob not in resp:
            fail(f"grid dimension request {line[:70]!r} not failed cleanly: {resp[:300]!r}")
        expect_alive(port, f"grid dimension request {line[:70]!r}")
    ok(f"{len(cases)} non-positive grid dimensions failed with structured errors")
    return len(cases)


def attack_out_of_range_knobs(port):
    """Every knob has a range (core/knobs.hpp). A well-typed value outside it
    must fail its own request, naming the knob, when the owning stage
    starts; a value of the wrong JSON kind is a parse error. Either way the
    daemon stays up. Returns (failed flows, parse errors)."""
    failed_cases = [
        (b'{"flow_request":{"pnr":{"placer":{"cooling":-1}}},"result":false}',
         b"pnr.placer.cooling"),
        (b'{"flow_request":{"pnr":{"target_freq_hz":0}},"result":false}',
         b"pnr.target_freq_hz"),
    ]
    for line, knob in failed_cases:
        resp = roundtrip(port, line, timeout_s=300.0)
        if b'"ok":false' not in resp or b'"status":"failed"' not in resp or knob not in resp:
            fail(f"out-of-range request {line[:70]!r} not failed cleanly: {resp[:300]!r}")
        expect_alive(port, f"out-of-range request {line[:70]!r}")
    line = b'{"flow_request":{"with_eyes":1},"result":false}'
    resp = roundtrip(port, line)
    if (b'"ok":false' not in resp or b'"error":' not in resp or b"with_eyes" not in resp
            or b'"status"' in resp):
        fail(f"mistyped request {line!r} not rejected as a parse error: {resp[:300]!r}")
    expect_alive(port, f"mistyped request {line!r}")
    ok("out-of-range knobs failed and a mistyped knob was rejected, daemon alive")
    return len(failed_cases), 1


def attack_mistyped_scalars(port):
    """Search spec and verb scalars are checked reads: a wrong kind, a
    fraction or a value the field's type cannot hold is a parse error that
    names the field (these once read as false, 1, 1 and 0)."""
    space = b'"space":{"tech":["glass25d"]}'
    cases = [
        (b'{"search":{' + space + b',"point_events":1}}', b"point_events"),
        (b'{"search":{' + space + b',"seed_points":4294967297}}', b"seed_points"),
        (b'{"flow_request":{},"priority":1.5}', b"priority"),
        (b'{"search":{' + space + b',"constraints":[{"metric":"cost_usd","max":"5"}]}}',
         b"constraints.max"),
    ]
    for line, field in cases:
        resp = roundtrip(port, line)
        if b'"ok":false' not in resp or b'"error":' not in resp or field not in resp:
            fail(f"mistyped scalar {line[:70]!r} not rejected by name: {resp[:300]!r}")
        expect_alive(port, f"mistyped scalar {line[:70]!r}")
    ok(f"{len(cases)} mistyped search/verb scalars rejected by name, daemon alive")
    return len(cases)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--idle-timeout-ms", type=int, default=1500,
                    help="the daemon's --idle-timeout-ms (for the slow-loris bound)")
    args = ap.parse_args()
    port = args.port

    if not expect_alive(port, "startup"):
        return 1
    base = get_stats(port)

    attack_deep_nesting(port)
    expect_alive(port, "deep-nesting bomb")

    attack_huge_line(port)
    expect_alive(port, "10 MB request line")

    attack_truncated_frames(port)
    expect_alive(port, "truncated frames")

    attack_binary_garbage(port)
    expect_alive(port, "binary garbage")

    attack_slow_loris(port, args.idle_timeout_ms)
    expect_alive(port, "slow loris")

    attack_mid_response_disconnect(port)
    expect_alive(port, "mid-response disconnect")

    n_bad = attack_bad_protocol_lines(port)
    expect_alive(port, "malformed protocol batch")

    n_grid = attack_bad_grid_dimensions(port)

    n_range, n_typed = attack_out_of_range_knobs(port)

    n_scalars = attack_mistyped_scalars(port)

    # Let the orphaned flow request finish so the counters settle.
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        stats = get_stats(port)
        if stats["scheduler"]["executed"] > base["scheduler"]["executed"]:
            break
        time.sleep(0.5)
    else:
        fail("orphaned flow request never executed (wedged worker?)")
        stats = get_stats(port)

    # Counter accounting: every attack above must have left a trace.
    errors = stats["protocol_errors"] - base["protocol_errors"]
    # nesting bomb + garbage + the malformed batch + the mistyped knob and
    # scalars, at minimum (the 10 MB line adds one more when its rejection
    # won the race with our send).
    want_min = 2 + n_bad + n_typed + n_scalars
    if errors < want_min:
        fail(f"protocol_errors {errors} < expected minimum {want_min}")
    else:
        ok(f"protocol_errors accounted: +{errors} (>= {want_min})")
    if stats["port"] != port:
        fail(f'stats reports port {stats["port"]}, expected {port}')
    else:
        ok("stats reports the kernel-assigned port")
    # The 10 MB line is counted server-side as soon as the cap trips, even
    # when our send lost the race to observe the response.
    if stats["oversize_rejections"] - base["oversize_rejections"] < 1:
        fail("10 MB line not counted in stats.oversize_rejections")
    else:
        ok("oversize rejection accounted")
    failed = stats["scheduler"]["failed"] - base["scheduler"]["failed"]
    if failed < n_grid + n_range:
        fail(f"scheduler.failed +{failed} < {n_grid + n_range} bad grid/range requests")
    else:
        ok(f"failed flows accounted: +{failed}")
    if stats["timeouts"] - base["timeouts"] < 1:
        fail("slow-loris reap not counted in stats.timeouts")
    else:
        ok(f'timeouts accounted: +{stats["timeouts"] - base["timeouts"]}')

    if FAILURES:
        print(f"robustness_corpus: {len(FAILURES)} failure(s)", file=sys.stderr)
        return 1
    print("robustness_corpus: daemon survived the full corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
