#!/usr/bin/env bash
# End-to-end smoke of the disc-serve session server.
#
# Boots the real `disc_served` binary on an ephemeral port, then
# replays one raw-protocol transcript over a plain socket — hello,
# create, run, streamed samples, done, stat, the refusals of a finished
# and of an evicted session, close, shutdown — and validates the wire
# grammar and the streamed disc-run-report/v3 report independently of
# the Rust client. Exercises the whole service path:
# TCP framing, session lifecycle, the worker pool, and observability
# streaming.
set -eu

SERVED=target/release/disc_served
OUT=results/serve-smoke

rm -rf "$OUT"
mkdir -p "$OUT"

"$SERVED" --addr 127.0.0.1:0 --print-addr --workers 2 \
    >"$OUT/addr" 2>"$OUT/served.log" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
    [ -s "$OUT/addr" ] && break
    sleep 0.1
done
ADDR=$(head -n1 "$OUT/addr")
[ -n "$ADDR" ] || { echo "serve-smoke: server never printed its address" >&2; exit 1; }
echo "serve-smoke: disc_served (pid $PID) listening on $ADDR"

echo "serve-smoke: raw-protocol transcript + schema check"
python3 - "$ADDR" <<'EOF'
import json, socket, sys

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

BOARD = '''
name = "smoke"

[program]
source = """
    .stream 0, main
main:
    ldi r0, 250
loop:
    subi r0, r0, 1
    jnz loop
    sta r0, 0x20
    halt
"""
'''

sock = socket.create_connection((host, int(port)), timeout=30)
rd = sock.makefile("r")
wr = sock.makefile("w")

def send(obj):
    wr.write(json.dumps(obj) + "\n")
    wr.flush()

def recv():
    line = rd.readline()
    assert line, "server closed the connection"
    return json.loads(line)

def reply(obj):
    send(obj)
    while True:
        msg = recv()
        if "id" in msg:
            assert msg["id"] == obj["id"], msg
            return msg
        events.append(msg)

def request(obj):
    msg = reply(obj)
    assert msg.get("ok"), msg
    return msg

def refused(obj, text):
    msg = reply(obj)
    assert msg.get("ok") is False and msg.get("error") == text, (obj, msg)

events = []
hello = recv()
assert hello["event"] == "hello" and hello["proto"] == "disc-serve/v2", hello

ack = request({"id": 1, "verb": "create", "board": BOARD,
               "sample_every": 64, "trace": False})
assert ack["board"] == "smoke", ack
session = ack["session"]
request({"id": 2, "verb": "run", "session": session, "cycles": 100000})

# The done event may already be queued: a fast run's events can be
# written before the connection thread writes the `run` ack.
def is_done(msg):
    return msg.get("event") in ("done", "error") and msg.get("session") == session

done = next((e for e in events if is_done(e)), None)
while done is None:
    msg = recv()
    assert "id" not in msg, msg
    events.append(msg)
    if is_done(msg):
        done = msg
assert done["event"] == "done" and done["exit"] == "halted", done

samples = [e for e in events if e.get("event") == "sample" and e.get("session") == session]
assert samples, "no sample windows streamed"
assert samples[-1]["data"]["cycle"] == done["cycles"] - 1, \
    (samples[-1], done["cycles"])

report = done["report"]
assert report["schema"] == "disc-run-report/v3", report["schema"]
assert report["tool"] == "disc-serve", report["tool"]
assert report["stats"]["cycles"] == done["cycles"], report["stats"]
assert len(report["config"]["fingerprint"]) == 16, report["config"]
assert isinstance(done["fingerprint"], int), done

# Dispatch counters ride outside the report so its schema and
# fingerprint stay pinned; the stat ack must mirror the done event.
dispatch = done["dispatch"]
assert set(dispatch) == {"superblock", "skips"}, dispatch
assert all(isinstance(v, int) for v in dispatch["superblock"].values()), dispatch
assert all(isinstance(v, int) for v in dispatch["skips"].values()), dispatch

stat = request({"id": 3, "verb": "stat", "session": session})
assert stat["state"] == "done", stat
assert stat["dispatch"] == dispatch, (stat["dispatch"], dispatch)

# The session phase table over the wire: a finished session refuses
# every verb that would run it or move it, but still snapshots.
finished = "session already finished"
refused({"id": 4, "verb": "run", "session": session, "cycles": 10}, finished)
refused({"id": 5, "verb": "resume", "session": session}, finished)
refused({"id": 6, "verb": "evict", "session": session}, finished)
snap = request({"id": 7, "verb": "snapshot", "session": session})
assert snap["cycle"] == done["cycles"], (snap, done["cycles"])
request({"id": 8, "verb": "close", "session": session})

# An idle session evicted: only `resume` brings it back, as paused.
idle = request({"id": 9, "verb": "create", "board": BOARD,
                "sample_every": 0, "trace": False})["session"]
request({"id": 10, "verb": "evict", "session": idle})
refused({"id": 11, "verb": "evict", "session": idle}, "session is already evicted")
evicted = "session is evicted; resume it first"
refused({"id": 12, "verb": "run", "session": idle, "cycles": 10}, evicted)
refused({"id": 13, "verb": "snapshot", "session": idle}, evicted)
resumed = request({"id": 14, "verb": "resume", "session": idle})
assert resumed["state"] == "paused", resumed
request({"id": 15, "verb": "close", "session": idle})
request({"id": 16, "verb": "shutdown"})

print("serve-smoke: transcript ok —", len(samples), "sample windows,",
      done["cycles"], "cycles")
EOF

wait "$PID"
echo "serve-smoke: server exited cleanly after shutdown"
