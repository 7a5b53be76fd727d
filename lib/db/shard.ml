(* FNV-1a, 64-bit: platform-stable byte hashing so key placement can be
   recomputed anywhere (clients, offline tools, tests). *)
let fnv1a key =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    key;
  !h

let key_index ~shards key =
  if shards < 1 then invalid_arg "Shard.key_index: need at least one shard";
  Int64.to_int (Int64.unsigned_rem (fnv1a key) (Int64.of_int shards))
