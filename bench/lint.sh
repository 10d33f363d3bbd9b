#!/bin/sh
# Robustness lint: the hardened numeric/estimation layers must not grow
# new escape hatches. Fails when a bare `failwith "..."` (string-literal
# argument — a diagnostic with no dimensions/values interpolated) or any
# `assert false` appears under lib/numerics or lib/estcore. Messages
# built with Printf.sprintf are fine: they carry the offending input.
#
# Run from the repository root (dune runs it via the runtest alias):
#   sh bench/lint.sh [root]
set -u

root=${1:-.}
status=0

scan() {
    pattern=$1
    label=$2
    hits=$(grep -rn "$pattern" \
        "$root/lib/numerics" "$root/lib/estcore" \
        --include='*.ml' 2>/dev/null)
    if [ -n "$hits" ]; then
        echo "lint: $label is banned under lib/numerics and lib/estcore:" >&2
        echo "$hits" >&2
        status=1
    fi
}

# `failwith "..."` with a literal string: no interpolated diagnostics.
scan 'failwith[[:space:]]*"' 'bare failwith with a string literal'
# `assert false`: an unreachable claim that turns into a blank exception.
scan 'assert[[:space:]][[:space:]]*false' 'assert false'

# Timing discipline: all of lib/ must read the clock through Obs
# (monotonic, trace-aware). Direct wall-clock or CPU-clock reads bypass
# the spans and drift when the system clock steps. (Obs itself wraps the
# monotonic-clock stub, so lib/numerics/obs.ml is the one exemption.)
timing_hits=$(grep -rnE 'Unix\.gettimeofday|Unix\.time[[:space:]]*\(|Sys\.time[[:space:]]*\(' \
    "$root/lib" --include='*.ml' 2>/dev/null \
    | grep -v 'lib/numerics/obs\.ml')
if [ -n "$timing_hits" ]; then
    echo "lint: direct clock reads are banned under lib/ — time through Numerics.Obs:" >&2
    echo "$timing_hits" >&2
    status=1
fi

# Serving discipline: the shard-owned code paths (the store's apply loop
# and the query engine) must stay free of blocking syscalls — a stalled
# shard task would stall every flush behind it. Line I/O belongs to
# Protocol.Conn (the session loop) and file reads to Snapshot only; and
# nothing under lib/server may ever sleep.
sleep_hits=$(grep -rn 'Unix\.sleep' "$root/lib/server" --include='*.ml' 2>/dev/null)
if [ -n "$sleep_hits" ]; then
    echo "lint: Unix.sleep is banned under lib/server:" >&2
    echo "$sleep_hits" >&2
    status=1
fi
block_hits=$(grep -nE 'Unix\.read|Unix\.recv|input_line|really_input' \
    "$root/lib/server/store.ml" "$root/lib/server/engine.ml" 2>/dev/null)
if [ -n "$block_hits" ]; then
    echo "lint: blocking reads are banned in shard-owned server code (store/engine):" >&2
    echo "$block_hits" >&2
    status=1
fi

# Event-loop discipline: the daemon is a single-domain select loop over
# nonblocking sockets. Channel line readers would block the whole loop
# on one slow client, and threads would reintroduce the
# one-session-per-thread model the loop replaced. All socket reads go
# through the incremental per-connection buffer.
loop_hits=$(grep -nE 'input_line|really_input|Thread\.' \
    "$root/lib/server/daemon.ml" 2>/dev/null)
if [ -n "$loop_hits" ]; then
    echo "lint: blocking line readers and threads are banned in the daemon event loop:" >&2
    echo "$loop_hits" >&2
    status=1
fi

# Durability discipline: every byte that reaches a WAL segment or a
# snapshot file goes through Durable (the CRC'd, fault-aware,
# fsync-gated writer). Raw writes in wal.ml/snapshot.ml would bypass
# the CRC framing, the atomic-replace protocol and the Faultify I/O
# plane at once — exactly the bytes a crash test would never see torn.
durable_hits=$(grep -nE 'open_out|output_string|output_char|output_bytes|Out_channel|Unix\.write|Unix\.single_write|Unix\.ftruncate|Unix\.fsync|Unix\.openfile' \
    "$root/lib/server/wal.ml" "$root/lib/server/snapshot.ml" 2>/dev/null)
if [ -n "$durable_hits" ]; then
    echo "lint: raw file writes are banned in wal.ml/snapshot.ml — go through Durable:" >&2
    echo "$durable_hits" >&2
    status=1
fi

# Cluster discipline: the router never mutates a store directly — every
# backend effect travels over the wire protocol (so the daemons stay the
# single writers of their partitions), and the router's resident merged
# store is built and advanced only through Merge (materialize, install,
# apply_deltas). A direct Store mutation in router.ml — the delta apply
# included — would fork cluster state from the daemons that own it.
router_hits=$(grep -nE 'Store\.(ingest|ingest_many|create_instance|install_summary|apply_delta|flush|check_ingest)' \
    "$root/lib/server/router.ml" 2>/dev/null)
if [ -n "$router_hits" ]; then
    echo "lint: direct Store mutation is banned in the router — speak the protocol or go through Merge:" >&2
    echo "$router_hits" >&2
    status=1
fi

# State discipline: a store instance is its counters and weight map plus
# the samples queries read, all rebuilt from the weights. A VarOpt
# reservoir under lib/server was state no query read, fed on every
# ingest record; it stays out.
varopt_hits=$(grep -rn 'Varopt' "$root/lib/server" --include='*.ml' 2>/dev/null)
if [ -n "$varopt_hits" ]; then
    echo "lint: Varopt is banned under lib/server — the store keeps only state a query reads:" >&2
    echo "$varopt_hits" >&2
    status=1
fi

# Codec discipline: a summary has one codec, Merge.payload /
# Merge.of_lines, and every snapshot section (file, WAL checkpoint,
# SYNC) is that payload. The retired `instance <name> …` section header
# (written as "instance %s …", matched as "instance") and a second
# spelling table for the seed mode (Store.mode_name / mode_of_name is
# the one) would bring a second codec back.
codec_hits=$(grep -rnE '"instance( %s|"| ")' "$root/lib/server" \
    --include='*.ml' 2>/dev/null)
if [ -n "$codec_hits" ]; then
    echo "lint: the instance-section literal is banned under lib/server — sections are Merge payloads:" >&2
    echo "$codec_hits" >&2
    status=1
fi
mode_hits=$(grep -rnE 'let[[:space:]]+mode_(name|of_name)[^_[:alnum:]]' \
    "$root/lib/server" --include='*.ml' 2>/dev/null \
    | grep -v 'lib/server/store\.ml:')
if [ -n "$mode_hits" ]; then
    echo "lint: seed-mode names are defined once, in lib/server/store.ml:" >&2
    echo "$mode_hits" >&2
    status=1
fi

# Per-key list lookups are how the sum aggregates went quadratic (one
# List.assoc_opt walk per sampled key). Serving code and the dominance
# norms index a sample once instead.
assoc_hits=$(grep -rn 'List\.assoc' "$root/lib/server" "$root/lib/aggregates/dominance.ml" \
    --include='*.ml' 2>/dev/null)
if [ -n "$assoc_hits" ]; then
    echo "lint: List.assoc is banned under lib/server and in lib/aggregates/dominance.ml — index the sample once:" >&2
    echo "$assoc_hits" >&2
    status=1
fi

# Oracle discipline: the reference evaluators (the Designer hashtable
# lookup, Similarity.sums and the list-walking Sum_agg.estimate) are
# the oracles the bit-identity tests hold the serving path to. Serving
# code calls their flat twins; a reference evaluator under lib/server
# would put the slow path back behind QUERY.
oracle_hits=$(grep -rnE 'Designer\.lookup|Similarity\.sums |Sum_agg\.estimate ' \
    "$root/lib/server" --include='*.ml' 2>/dev/null)
if [ -n "$oracle_hits" ]; then
    echo "lint: reference evaluators are banned under lib/server — call the flat twins:" >&2
    echo "$oracle_hits" >&2
    status=1
fi

# Hot-path discipline: the per-key evaluator modules must stay off the
# polymorphic runtime. `Stdlib.compare`/bare `compare` walks tags and
# boxes floats; `Hashtbl.hash` hashes structure (and is why derivation
# fingerprints used to cost more than derivations). Cache keys there use
# bit-pattern hashes and monomorphic Float/Int comparisons instead.
# The monotone L* engine and the similarity aggregate it serves are on
# the per-key query path, so they are held to the same bans.
hot_files=""
for m in max_oblivious max_pps ht or_oblivious or_weighted evalbuf monotone; do
    for ext in ml mli; do
        f="$root/lib/estcore/$m.$ext"
        [ -f "$f" ] && hot_files="$hot_files $f"
    done
done
for ext in ml mli; do
    f="$root/lib/aggregates/similarity.$ext"
    [ -f "$f" ] && hot_files="$hot_files $f"
done
poly_hits=$(grep -nE 'Stdlib\.compare|Hashtbl\.hash|Stdlib\.hash|[^._[:alnum:]]compare[[:space:]]+[^( ]' \
    $hot_files 2>/dev/null)
if [ -n "$poly_hits" ]; then
    echo "lint: polymorphic compare/hash is banned in the hot-path estcore modules:" >&2
    echo "$poly_hits" >&2
    status=1
fi
# List-returning evaluators allocate per call; the flat modules must
# expose only scalar reads and *_into stores.
list_hits=$(grep -nE 'val[[:space:]]+[a-z_]*(_into|cell|code)[^:]*:.*list' \
    $hot_files 2>/dev/null)
if [ -n "$list_hits" ]; then
    echo "lint: list-returning evaluators are banned in the hot-path estcore modules:" >&2
    echo "$list_hits" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "lint: lib/numerics, lib/estcore, lib/server and lib/ timing are clean"
fi
exit "$status"
