(** Table placement for the sharded serving layer.

    The server partitions the database by table name: every table (with
    its indexes, pager and histograms) lives in exactly one shard, owned
    by that shard's executor.  Placement is a pure function of the name,
    so the server, offline tools (log replay, restore) and clients all
    route a table to the same shard without sharing any state. *)

val key_index : shards:int -> string -> int
(** Pure placement: FNV-1a over the key bytes, mod [shards] — independent
    of process, session and platform.
    @raise Invalid_argument if [shards < 1]. *)
