open Secdb_util
module Metrics = Secdb_obs.Metrics

(* Global mirrors of the per-pager [stats] record, so a workload's cache
   behaviour shows up in the process-wide registry without holding on to
   every pager handle. *)
let m_cache_hits = Metrics.counter "pager.cache_hits"
let m_cache_misses = Metrics.counter "pager.cache_misses"
let m_evictions = Metrics.counter "pager.evictions"
let m_writebacks = Metrics.counter "pager.writebacks"
let m_disk_reads = Metrics.counter "pager.disk_reads"
let m_disk_writes = Metrics.counter "pager.disk_writes"

let magic = "SECDBPG1"
let header_size = 20

type stats = {
  mutable disk_reads : int;
  mutable disk_writes : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable evictions : int;
  mutable writebacks : int;
}

(* Frames form an intrusive doubly-linked LRU list (head = most recently
   used, tail = eviction victim), so a cache miss evicts in O(1) instead
   of scanning the whole table. *)
type frame = {
  page : int;
  mutable data : bytes;
  mutable dirty : bool;
  mutable lru_prev : frame option; (* towards the head / MRU end *)
  mutable lru_next : frame option; (* towards the tail / LRU end *)
}

type t = {
  vf : Vfs.file;
  psize : int;
  cache_pages : int;
  cache : (int, frame) Hashtbl.t;
  st : stats;
  mutable npages : int; (* allocated pages, header excluded *)
  mutable free_head : int; (* 0 = none *)
  mutable lru_head : frame option;
  mutable lru_tail : frame option;
  mutable closed : bool;
}

let fresh_stats () =
  { disk_reads = 0; disk_writes = 0; cache_hits = 0; cache_misses = 0; evictions = 0;
    writebacks = 0 }

let check_open t = if t.closed then invalid_arg "Pager: file is closed"

let disk_read t page =
  let buf = Bytes.make t.psize '\000' in
  (* a short file reads as zeros beyond its end *)
  ignore (Vfs.really_pread t.vf ~pos:(page * t.psize) buf ~off:0 ~len:t.psize);
  t.st.disk_reads <- t.st.disk_reads + 1;
  Metrics.incr m_disk_reads;
  buf

let disk_write t page data =
  (* unsafe_to_string: the vfs does not retain the buffer past the call *)
  Vfs.really_pwrite t.vf ~pos:(page * t.psize) (Bytes.unsafe_to_string data);
  t.st.disk_writes <- t.st.disk_writes + 1;
  Metrics.incr m_disk_writes

let header_bytes t =
  let b = Bytes.make t.psize '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Xbytes.set_uint32_be b 8 t.psize;
  Xbytes.set_uint32_be b 12 t.npages;
  Xbytes.set_uint32_be b 16 t.free_head;
  b

let write_header t = disk_write t 0 (header_bytes t)

(* --- cache ---------------------------------------------------------------- *)

let lru_unlink t f =
  (match f.lru_prev with
  | Some p -> p.lru_next <- f.lru_next
  | None -> t.lru_head <- f.lru_next);
  (match f.lru_next with
  | Some n -> n.lru_prev <- f.lru_prev
  | None -> t.lru_tail <- f.lru_prev);
  f.lru_prev <- None;
  f.lru_next <- None

let lru_push_front t f =
  f.lru_prev <- None;
  f.lru_next <- t.lru_head;
  (match t.lru_head with Some h -> h.lru_prev <- Some f | None -> t.lru_tail <- Some f);
  t.lru_head <- Some f

(* Move to the MRU end.  Already-front frames (the common hot-path case)
   cost two pointer reads and no writes. *)
let touch t f =
  match t.lru_head with
  | Some h when h == f -> ()
  | _ ->
      lru_unlink t f;
      lru_push_front t f

let evict_one t =
  match t.lru_tail with
  | None -> ()
  | Some victim ->
      if victim.dirty then begin
        disk_write t victim.page victim.data;
        t.st.writebacks <- t.st.writebacks + 1;
        Metrics.incr m_writebacks
      end;
      lru_unlink t victim;
      Hashtbl.remove t.cache victim.page;
      t.st.evictions <- t.st.evictions + 1;
      Metrics.incr m_evictions

let insert_frame t page data ~dirty =
  if Hashtbl.length t.cache >= t.cache_pages then evict_one t;
  let f = { page; data; dirty; lru_prev = None; lru_next = None } in
  lru_push_front t f;
  Hashtbl.replace t.cache page f;
  f

let frame_of t page =
  match Hashtbl.find_opt t.cache page with
  | Some f ->
      t.st.cache_hits <- t.st.cache_hits + 1;
      Metrics.incr m_cache_hits;
      touch t f;
      f
  | None ->
      t.st.cache_misses <- t.st.cache_misses + 1;
      Metrics.incr m_cache_misses;
      insert_frame t page (disk_read t page) ~dirty:false

(* --- API ------------------------------------------------------------------ *)

let create ~path ?(page_size = 4096) ?(cache_pages = 64) ?(vfs = Vfs.unix) () =
  if page_size < 64 then invalid_arg "Pager.create: page size too small";
  if cache_pages < 1 then invalid_arg "Pager.create: cache must hold a page";
  let vf = vfs.Vfs.open_file ~path ~mode:`Trunc in
  let t =
    {
      vf;
      psize = page_size;
      cache_pages;
      cache = Hashtbl.create cache_pages;
      st = fresh_stats ();
      npages = 0;
      free_head = 0;
      lru_head = None;
      lru_tail = None;
      closed = false;
    }
  in
  write_header t;
  t

let open_file ~path ?(cache_pages = 64) ?(vfs = Vfs.unix) () =
  match vfs.Vfs.open_file ~path ~mode:`Rw with
  | exception Vfs.Io_error { reason; _ } -> Error ("Pager.open_file: " ^ reason)
  | vf -> (
      let fail msg =
        (try vf.Vfs.close () with Vfs.Io_error _ -> ());
        Error msg
      in
      let head = Bytes.create header_size in
      (* a single pread may return short even on a healthy file; loop *)
      match Vfs.really_pread vf ~pos:0 head ~off:0 ~len:header_size with
      | exception Vfs.Io_error { reason; _ } -> fail ("Pager.open_file: " ^ reason)
      | n ->
          if n < header_size || Bytes.sub_string head 0 8 <> magic then
            fail "Pager.open_file: not a pager file"
          else
            let hs = Bytes.to_string head in
            let psize = Xbytes.get_uint32_be hs 8 in
            let npages = Xbytes.get_uint32_be hs 12 in
            let free_head = Xbytes.get_uint32_be hs 16 in
            if psize < 64 then
              fail (Printf.sprintf "Pager.open_file: invalid page size %d" psize)
            else if npages < 0 then
              fail (Printf.sprintf "Pager.open_file: invalid page count %d" npages)
            else if free_head < 0 || free_head > npages then
              fail
                (Printf.sprintf "Pager.open_file: free-list head %d out of range (0..%d)"
                   free_head npages)
            else
              Ok
                {
                  vf;
                  psize;
                  cache_pages;
                  cache = Hashtbl.create cache_pages;
                  st = fresh_stats ();
                  npages;
                  free_head;
                  lru_head = None;
                  lru_tail = None;
                  closed = false;
                })

let page_size t = t.psize
let page_count t = t.npages
let free_head t = t.free_head

let check_page t page op =
  if page < 1 || page > t.npages then
    invalid_arg (Printf.sprintf "Pager.%s: page %d out of range" op page)

let read t page =
  check_open t;
  check_page t page "read";
  Bytes.to_string (frame_of t page).data

let write t page data =
  check_open t;
  check_page t page "write";
  if String.length data > t.psize then invalid_arg "Pager.write: data exceeds the page size";
  let f = frame_of t page in
  let padded = Bytes.make t.psize '\000' in
  Bytes.blit_string data 0 padded 0 (String.length data);
  f.data <- padded;
  f.dirty <- true

let alloc t =
  check_open t;
  if t.free_head <> 0 then begin
    let page = t.free_head in
    let next = Xbytes.be_string_to_int (String.sub (read t page) 0 8) in
    t.free_head <- next;
    write t page "";
    page
  end
  else begin
    t.npages <- t.npages + 1;
    let page = t.npages in
    (* materialise the page in cache as zeros *)
    ignore (insert_frame t page (Bytes.make t.psize '\000') ~dirty:true);
    page
  end

let free t page =
  check_open t;
  check_page t page "free";
  (* The adversary reads the raw file, so a freed page must not keep its
     old ciphertext waiting for the next flush: zeroize everything beyond
     the 8-byte free-list pointer and write through immediately. *)
  let buf = Bytes.make t.psize '\000' in
  Bytes.blit_string (Xbytes.int_to_be_string ~width:8 t.free_head) 0 buf 0 8;
  (match Hashtbl.find_opt t.cache page with
  | Some f ->
      f.data <- buf;
      f.dirty <- false;
      touch t f
  | None -> ());
  disk_write t page buf;
  t.free_head <- page

let flush t =
  check_open t;
  Hashtbl.iter
    (fun page frame ->
      if frame.dirty then begin
        disk_write t page frame.data;
        frame.dirty <- false
      end)
    t.cache;
  write_header t

let sync t =
  check_open t;
  t.vf.Vfs.fsync ()

let close t =
  if not t.closed then begin
    flush t;
    sync t;
    t.vf.Vfs.close ();
    t.closed <- true
  end

let stats t = t.st

let reset_stats t =
  t.st.disk_reads <- 0;
  t.st.disk_writes <- 0;
  t.st.cache_hits <- 0;
  t.st.cache_misses <- 0;
  t.st.evictions <- 0;
  t.st.writebacks <- 0
