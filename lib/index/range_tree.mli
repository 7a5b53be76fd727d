(** Bucketized encrypted range structure, after Kerschbaum & Tueno's
    efficiently searchable encrypted data structure for range queries
    (ESEDS): the value domain is cut into [k] buckets by [k-1] plaintext
    boundary values, every entry is stored as an AEAD-sealed payload inside
    its bucket, and a range query [lo..hi] touches exactly the buckets
    whose span overlaps the range.

    The leakage is modelled explicitly and is the whole point of the
    design: the adversary observing storage learns, per entry, {e which
    bucket it sits in} and {e when it was inserted} (the sequence number),
    plus the public bucket boundaries — i.e. each entry's plaintext rank
    to bucket granularity and the bucket histogram.  Nothing else: values
    inside a bucket are AEAD ciphertexts under fresh nonces, mutually
    indistinguishable.  {!Secdb_attacks.Range_leak} turns that surface
    into quantitative scores and the CI gate pins them.

    Sealed payloads are bound to the triple (tree id, sequence number,
    bucket) through the sealer — with the AEAD sealer built by
    [Encdb.create_range_index] the triple travels as associated data, so
    replaying an entry into another bucket (shifting its apparent rank) or
    grafting it into another tree fails authentication, the same address
    binding as [Encdb]'s per-cell AEAD seal (paper §4). *)

(** Pluggable payload protection, mirroring {!Bptree.codec}: the tree never
    sees key material.  [seal]/[unseal] receive the entry's sequence number
    and bucket so schemes can authenticate position. *)
type sealer = {
  sealer_name : string;
  seal : seq:int -> bucket:int -> string -> string;
  unseal : seq:int -> bucket:int -> string -> (string, string) result;
}

val plain_sealer : sealer
(** Identity sealer (payloads in clear) — for tests and attack baselines. *)

exception Integrity of string
(** Raised when a stored payload fails to unseal during queries —
    tampering or relocation detected. *)

type t

val create : id:int -> sealer:sealer -> boundaries:Secdb_db.Value.t array -> unit -> t
(** [boundaries] must be strictly increasing under {!Secdb_db.Value.compare};
    [k-1] boundaries make [k] buckets (an empty array makes one bucket,
    which leaks nothing but also prunes nothing).
    @raise Invalid_argument if the boundaries are not strictly sorted. *)

val quantile_boundaries : ?buckets:int -> Secdb_db.Value.t list -> Secdb_db.Value.t array
(** Boundaries at the [j·n/k] quantiles of the given values (default 16
    buckets), deduplicated — the data-driven bucketization
    [Encdb.create_range_index] uses so each bucket holds roughly [n/k]
    entries regardless of skew. *)

val id : t -> int
val nbuckets : t -> int
val size : t -> int
val boundaries : t -> Secdb_db.Value.t array

val bucket_of : t -> Secdb_db.Value.t -> int
(** The bucket a value belongs to: the first bucket whose (exclusive)
    upper boundary exceeds the value; the last bucket is unbounded. *)

val insert : t -> Secdb_db.Value.t -> table_row:int -> unit

val delete : t -> Secdb_db.Value.t -> table_row:int -> bool
(** Remove one (value, row) entry; [false] if absent.
    @raise Integrity if the candidate bucket holds an undecodable payload. *)

val query :
  t -> ?lo:Secdb_db.Value.t -> ?hi:Secdb_db.Value.t -> unit -> (Secdb_db.Value.t * int) list
(** Inclusive range query: unseal the overlapping buckets, filter exactly,
    return entries sorted by ascending table row.  (Row order — not value
    order — so the SQL engine's candidate sets coincide with a full scan's
    and the lock-free snapshot path can mirror the plan byte for byte.)
    @raise Integrity on the first payload that fails to unseal. *)

(** {2 The adversary's view} *)

val bucket_counts : t -> int array
(** Sealed-entry count per bucket — the bucket histogram the storage
    reveals. *)

val observed : t -> (int * int) list
(** [(seq, bucket)] for every stored entry, ascending [seq] — exactly what
    an adversary watching storage writes learns, and the input surface of
    {!Secdb_attacks.Range_leak}. *)

val tamper : t -> seq:int -> f:(string -> string) -> unit
(** Rewrite a stored sealed payload in place — the adversary writes to
    storage below the DBMS, no checks performed.
    @raise Invalid_argument if [seq] is not stored. *)

val relocate : t -> seq:int -> bucket:int -> unit
(** Move a sealed payload to another bucket without re-sealing — the
    rank-shifting attack the sealer's positional binding must defeat.
    @raise Invalid_argument if [seq] is not stored or [bucket] is out of
    range. *)
