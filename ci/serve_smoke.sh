#!/usr/bin/env bash
# Serve smoke: boot a real server process on a private Unix socket, run an
# authenticated query over the wire, prove a tampered request is rejected
# with a structured error, and check SIGTERM drains cleanly.  This is the
# same scenario cram/serve.t pins; here it runs against the installed
# binary exactly as CI built it.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin
SECDB=_build/default/bin/secdb_cli.exe

DIR=$(mktemp -d)
SOCK="$DIR/db.sock"
trap 'kill "$SRV" 2>/dev/null || true; rm -rf "$DIR"' EXIT

"$SECDB" serve -a "unix:$SOCK" --seed 42 >"$DIR/serve.log" 2>&1 &
SRV=$!

for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "serve smoke: server never bound $SOCK" >&2; exit 1; }

[ "$("$SECDB" ping -a "unix:$SOCK")" = "pong" ] || { echo "serve smoke: ping failed" >&2; exit 1; }

out=$("$SECDB" client -a "unix:$SOCK" \
  -e "CREATE TABLE t (id INT CLEAR, v TEXT)" \
  -e "INSERT INTO t VALUES (1, 'smoke')" \
  -e "SELECT v FROM t")
echo "$out" | grep -q '"smoke"' || { echo "serve smoke: query lost data: $out" >&2; exit 1; }

if "$SECDB" client -a "unix:$SOCK" --tamper -e "SELECT v FROM t" >"$DIR/tamper.out" 2>&1; then
  echo "serve smoke: tampered request was not rejected" >&2; exit 1
fi
grep -q 'error \[auth\]: request MAC mismatch' "$DIR/tamper.out" || {
  echo "serve smoke: tamper rejection was not a structured auth error:" >&2
  cat "$DIR/tamper.out" >&2; exit 1
}

kill -TERM "$SRV"
wait "$SRV" || { echo "serve smoke: server exited non-zero on SIGTERM" >&2; exit 1; }
grep -q 'drained, bye' "$DIR/serve.log" || { echo "serve smoke: no drain message" >&2; exit 1; }
[ ! -e "$SOCK" ] || { echo "serve smoke: socket not unlinked" >&2; exit 1; }

# Sharded smoke: boot again with four shards and pipeline a script that
# spans several tables (so statements hash to different shards, and every
# SELECT — point, open-bound, OR, GROUP BY, and a JOIN of "custs" and
# "items", which share a shard of four — rides the lock-free snapshot
# path), then run the identical script
# in-process with `secdb_cli sql` and require byte-identical outcomes —
# sharding and the snapshot fast path must be invisible to clients.
SOCK4="$DIR/db4.sock"
"$SECDB" serve -a "unix:$SOCK4" --seed 42 --shards 4 >"$DIR/serve4.log" 2>&1 &
SRV4=$!
trap 'kill "$SRV4" 2>/dev/null || true; rm -rf "$DIR"' EXIT

for _ in $(seq 1 100); do [ -S "$SOCK4" ] && break; sleep 0.1; done
[ -S "$SOCK4" ] || { echo "serve smoke: 4-shard server never bound $SOCK4" >&2; exit 1; }

STMTS=(
  "CREATE TABLE a (id INT CLEAR, v TEXT)"
  "CREATE TABLE b (id INT CLEAR, v TEXT)"
  "CREATE INDEX ON a (v)"
  "INSERT INTO a VALUES (1, 'x1')"
  "INSERT INTO a VALUES (2, 'x2')"
  "INSERT INTO b VALUES (10, 'y')"
  "UPDATE a SET v = 'x9' WHERE id = 2"
  "SELECT id, v FROM a WHERE v = 'x9'"
  "SELECT v FROM b WHERE id = 10"
  "DELETE FROM a WHERE id = 1"
  "SELECT id, v FROM a ORDER BY id"
  "INSERT INTO a VALUES (3, 'x3')"
  "SELECT id FROM a WHERE v > 'x3'"
  "SELECT id, v FROM a WHERE id = 3 OR v = 'x9'"
  "SELECT v, count(*) FROM a GROUP BY v"
  "CREATE TABLE custs (id INT CLEAR, name TEXT)"
  "CREATE TABLE items (id INT CLEAR, cust_id INT, sku TEXT)"
  "CREATE INDEX ON items (cust_id)"
  "INSERT INTO custs VALUES (1, 'amy')"
  "INSERT INTO custs VALUES (2, 'bob')"
  "INSERT INTO items VALUES (10, 2, 'bolt')"
  "INSERT INTO items VALUES (11, 1, 'nut')"
  "INSERT INTO items VALUES (12, 2, 'cog')"
  "SELECT name, sku FROM custs JOIN items ON custs.id = items.cust_id WHERE custs.id >= 1 ORDER BY sku DESC LIMIT 2"
)

CLIENT_ARGS=()
for s in "${STMTS[@]}"; do CLIENT_ARGS+=(-e "$s"); done
"$SECDB" client -a "unix:$SOCK4" "${CLIENT_ARGS[@]}" >"$DIR/wire.out"

# shell mode: drop the banner, strip the prompt, drop the empty quit line
printf '%s\n' "${STMTS[@]}" | "$SECDB" sql \
  | sed -e '1d' -e 's/^secdb> //' -e '/^$/d' >"$DIR/local.out"
sed -e '/^$/d' "$DIR/wire.out" >"$DIR/wire.flat"
mv "$DIR/wire.flat" "$DIR/wire.out"

diff -u "$DIR/local.out" "$DIR/wire.out" || {
  echo "serve smoke: 4-shard wire output diverges from in-process engine" >&2; exit 1
}
grep -q '"x9"' "$DIR/wire.out" || { echo "serve smoke: sharded query lost data" >&2; exit 1; }

kill -TERM "$SRV4"
wait "$SRV4" || { echo "serve smoke: 4-shard server exited non-zero on SIGTERM" >&2; exit 1; }
grep -q 'drained, bye' "$DIR/serve4.log" || { echo "serve smoke: 4-shard no drain message" >&2; exit 1; }

# Group commit: boot a primary with an oplog (one fsync per append).  One
# INSERT per client call is one fsync per appended record; a pipelined
# burst on one connection lets the executor commit queued INSERTs
# together, so the burst takes fewer fsyncs than records.  Either check
# failing means the durable write path changed shape.
SOCKG="$DIR/gc.sock"
"$SECDB" serve -a "unix:$SOCKG" --seed 42 --oplog "$DIR/gc.log" >"$DIR/servegc.log" 2>&1 &
SRVG=$!
trap 'kill "$SRVG" 2>/dev/null || true; rm -rf "$DIR"' EXIT

for _ in $(seq 1 100); do [ -S "$SOCKG" ] && break; sleep 0.1; done
[ -S "$SOCKG" ] || { echo "serve smoke: primary never bound $SOCKG" >&2; exit 1; }

counter() {
  "$SECDB" client -a "unix:$SOCKG" --stats | awk -v n="$1" '$1 == "counter" && $2 == n { print $3 }'
}
"$SECDB" client -a "unix:$SOCKG" -e "CREATE TABLE g (id INT CLEAR, v TEXT)" >/dev/null
for i in 1 2 3 4 5; do
  "$SECDB" client -a "unix:$SOCKG" -e "INSERT INTO g VALUES ($i, 'one')" >/dev/null
done
appends=$(counter oplog.appends)
syncs=$(counter oplog.syncs)
[ "$appends" = 6 ] && [ "$syncs" = "$appends" ] || {
  echo "serve smoke: serial INSERTs took $syncs fsyncs for $appends appends, want 6 and 6" >&2; exit 1
}

BURST=()
for i in $(seq 100 1099); do BURST+=(-e "INSERT INTO g VALUES ($i, 'burst')"); done
acked=$("$SECDB" client -a "unix:$SOCKG" "${BURST[@]}" | grep -c 'row(s) affected')
[ "$acked" = 1000 ] || { echo "serve smoke: pipelined burst acked $acked of 1000" >&2; exit 1; }
burst_appends=$(( $(counter oplog.appends) - appends ))
burst_syncs=$(( $(counter oplog.syncs) - syncs ))
[ "$burst_appends" = 1000 ] && [ "$burst_syncs" -lt "$burst_appends" ] || {
  echo "serve smoke: pipelined burst took $burst_syncs fsyncs for $burst_appends appends" >&2; exit 1
}

kill -TERM "$SRVG"
wait "$SRVG" || { echo "serve smoke: primary exited non-zero on SIGTERM" >&2; exit 1; }
grep -q 'drained, bye' "$DIR/servegc.log" || { echo "serve smoke: primary no drain message" >&2; exit 1; }

echo "serve smoke: OK"
