#!/usr/bin/env bash
# Replication smoke: boot a primary (with an oplog) and two replicas — one
# keeping a verbatim local log copy, one verify-and-apply only — write
# through the authenticated wire, then kill -9 the primary.  Both replicas
# must keep serving exactly the replicated state, their Merkle roots must
# equal the primary's last attestation, and `secdb restore` over the
# replica's log copy must rebuild byte-identical state (same root) — the
# point-in-time recovery path cross-checks the live one.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build bin
SECDB=_build/default/bin/secdb_cli.exe

DIR=$(mktemp -d)
PRIM=""; R1=""; R2=""
trap 'kill -9 $PRIM $R1 $R2 2>/dev/null || true; rm -rf "$DIR"' EXIT

PSOCK="$DIR/p.sock"; R1SOCK="$DIR/r1.sock"; R2SOCK="$DIR/r2.sock"

wait_sock() {
  for _ in $(seq 1 100); do [ -S "$1" ] && return 0; sleep 0.1; done
  echo "replication smoke: server never bound $1" >&2; exit 1
}

# applied-op count a node attests to, via the client's --root
applied_of() { "$SECDB" client -a "unix:$1" --root | sed -n 's/^applied //p'; }
root_of()    { "$SECDB" client -a "unix:$1" --root | sed -n 's/^merkle root //p'; }

wait_applied() { # sock, want
  for _ in $(seq 1 100); do
    [ "$(applied_of "$1")" = "$2" ] && return 0
    sleep 0.1
  done
  echo "replication smoke: $1 stuck at $(applied_of "$1")/$2 ops" >&2; exit 1
}

"$SECDB" serve -a "unix:$PSOCK" --seed 42 --shards 2 --oplog "$DIR/primary.log" \
  >"$DIR/p.out" 2>&1 &
PRIM=$!
wait_sock "$PSOCK"

"$SECDB" serve -a "unix:$R1SOCK" --seed 43 --shards 2 --replica-of "unix:$PSOCK" \
  --oplog "$DIR/replica1.log" >"$DIR/r1.out" 2>&1 &
R1=$!
"$SECDB" serve -a "unix:$R2SOCK" --seed 44 --shards 2 --replica-of "unix:$PSOCK" \
  >"$DIR/r2.out" 2>&1 &
R2=$!
wait_sock "$R1SOCK"
wait_sock "$R2SOCK"

# the workload spans two tables so records route to both shards
"$SECDB" client -a "unix:$PSOCK" \
  -e "CREATE TABLE users (id INT CLEAR, name TEXT)" \
  -e "CREATE TABLE orders (id INT CLEAR, item TEXT)" \
  -e "INSERT INTO users VALUES (1, 'alice')" \
  -e "INSERT INTO users VALUES (2, 'bob')" \
  -e "INSERT INTO orders VALUES (10, 'widget')" \
  -e "UPDATE users SET name = 'carol' WHERE id = 2" \
  -e "DELETE FROM orders WHERE id = 10" >"$DIR/write.out"

APPLIED=$(applied_of "$PSOCK")
PROOT=$(root_of "$PSOCK")
[ "$APPLIED" = "7" ] || { echo "replication smoke: primary applied $APPLIED, want 7" >&2; exit 1; }

wait_applied "$R1SOCK" "$APPLIED"
wait_applied "$R2SOCK" "$APPLIED"

# R1 keeps its log copy with one write and one fsync per pull, not per
# record, so the records it took outnumber its fsyncs
counter() { # sock, name
  "$SECDB" client -a "unix:$1" --stats | awk -v n="$2" '$1 == "counter" && $2 == n { print $3 }'
}
R1_APPENDS=$(counter "$R1SOCK" oplog.appends)
R1_SYNCS=$(counter "$R1SOCK" oplog.syncs)
[ "$R1_APPENDS" = "$APPLIED" ] && [ "$R1_SYNCS" -lt "$R1_APPENDS" ] || {
  echo "replication smoke: replica took $R1_SYNCS fsyncs for $R1_APPENDS records, want fewer" >&2
  exit 1
}

# a replica must refuse writes with a structured error...
if "$SECDB" client -a "unix:$R1SOCK" -e "INSERT INTO users VALUES (9, 'eve')" \
  >"$DIR/reject.out" 2>&1; then
  echo "replication smoke: replica accepted a write" >&2; exit 1
fi
grep -q 'read-only replica' "$DIR/reject.out" || {
  echo "replication smoke: write rejection was not structured:" >&2
  cat "$DIR/reject.out" >&2; exit 1
}

# ...and the primary dies without ceremony: no drain, no final fsync beyond
# what each acked write already did
{ kill -9 "$PRIM" && wait "$PRIM"; } 2>/dev/null || true
PRIM=""

# both replicas keep serving the replicated state after the primary dies
for SOCK in "$R1SOCK" "$R2SOCK"; do
  out=$("$SECDB" client -a "unix:$SOCK" -e "SELECT name FROM users WHERE id = 2")
  echo "$out" | grep -q '"carol"' || {
    echo "replication smoke: $SOCK lost the replicated state: $out" >&2; exit 1
  }
  ROOT=$(root_of "$SOCK")
  [ "$ROOT" = "$PROOT" ] || {
    echo "replication smoke: $SOCK root $ROOT != primary's $PROOT" >&2; exit 1
  }
done

# offline point-in-time recovery over the replica's verbatim log copy
# reproduces the exact attested state (constant-size check: the root)
"$SECDB" restore "$DIR/replica1.log" --shards 2 --expect-root "$PROOT" >"$DIR/restore.out"
grep -q "restored $APPLIED op(s)" "$DIR/restore.out" || {
  echo "replication smoke: restore applied the wrong count:" >&2
  cat "$DIR/restore.out" >&2; exit 1
}

# an earlier point in time still queries: before the UPDATE, id 2 is 'bob'
"$SECDB" restore "$DIR/replica1.log" --shards 2 --to-op 5 \
  -e "SELECT name FROM users WHERE id = 2" >"$DIR/pit.out"
grep -q '"bob"' "$DIR/pit.out" || {
  echo "replication smoke: --to-op state is wrong:" >&2; cat "$DIR/pit.out" >&2; exit 1
}

# and a wrong expected root must fail loudly
if "$SECDB" restore "$DIR/replica1.log" --shards 2 \
  --expect-root "0000000000000000000000000000000000000000000000000000000000000000" \
  >/dev/null 2>&1; then
  echo "replication smoke: restore accepted a wrong root" >&2; exit 1
fi

# replicas drain cleanly
kill -TERM "$R1" "$R2"
wait "$R1" || { echo "replication smoke: replica 1 exited non-zero" >&2; exit 1; }
wait "$R2" || { echo "replication smoke: replica 2 exited non-zero" >&2; exit 1; }
R1=""; R2=""

echo "replication smoke: OK"
