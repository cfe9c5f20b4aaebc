[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* Sharded free store for the [Native] backend.

   A single free list ([Pool]'s unsharded store) funnels every
   allocation and free through one stamped Treiber head — a single
   global hot word that stops scaling past a couple of domains. Following Blelloch & Wei
   (concurrent fixed-size allocation) and the paper's own 2N-list
   design, this module splits the node range into [shards] contiguous
   stripes, each with its own cache-line-padded stamped head, and puts
   a small unsynchronised per-thread cache in front of them:

   - a thread allocates from its cache and refills it [batch] nodes at
     a time from its home stripe ([tid mod shards]);
   - frees go into the cache; on overflow the oldest [batch] nodes are
     spilled — nodes whose home is the thread's own stripe are pushed
     back as one chain with a single CAS, nodes that belong to another
     stripe are routed through that stripe's MPSC return buffer so
     cross-domain frees do not CAS-hammer a remote head;
   - an empty home stripe steals round-robin from the other stripes.

   The stripe heads, return-buffer slots and producer cursors all live
   on one {!Atomics.Hot} vector, so they share the arena's raw-word
   regime: no boxes, no GC traffic, each word on its own cache-line
   pair.

   ABA safety: every successful head CAS increments the stamp, so a
   successful batch pop (read head, walk [batch] nodes, CAS the head
   past the cut point) proves the list head was untouched for the
   whole walk — on-list nodes' [mm_next] words are only written while
   the node is privately owned, and cells live forever, so the stale
   reads a failed attempt may have made are harmless.

   Reference counts are never touched here: the RC schemes keep their
   "free node carries mm_ref = 1" convention across the cache and the
   buffers, and hand nodes out with a FAA (stale deref FAA pairs can
   still land on a cached node, so a plain store would be lost-update
   racy — the managers own that protocol, not the store).

   Parking: a thread that finds the whole store empty can register on
   the store's {!Atomics.Park} spot ({!wait_free}) instead of
   spinning; every push that makes nodes *visible* (a chain push or a
   return-buffer install — cache-local frees are invisible by design)
   wakes the parkers. Parks are timed: nodes parked in other threads'
   caches generate no wake, so the waiter re-polls.

   The [Sim] backend never constructs one of these: sharding is a
   Native-only path, keeping the deterministic scheduler's and
   lincheck's per-primitive schedules byte-for-byte unchanged. *)

module B = Atomics.Backend
module C = Atomics.Counters
module Hot = Atomics.Hot
module Park = Atomics.Park

(* Both the record and its slots are {!Atomics.Backend.padded}, so
   no two threads' caches share a cache-line pair. *)
type cache = {
  slots : int array; (* Value.ptr; 2*batch used words; thread-local *)
  mutable len : int;
}

type t = {
  arena : Arena.t;
  capacity : int;
  shards : int;
  batch : int;
  threads : int;
  rbuf_size : int;
  ctr : C.t;
  hot : Hot.t; (* stamped stripe heads, return slots, producer cursors *)
  caches : cache array; (* [threads] *)
  park : Park.t; (* woken by every visible push; see [wait_free] *)
  adopt_lock : int Atomic.t; (* single-adopter guard for [adopt] *)
}

let shards t = t.shards
let batch t = t.batch

(* Hot-vector slot map: stripe [s]'s head at [s], its producer cursor
   at [shards + s], return slot [i] of stripe [s] at
   [2*shards + s*rbuf_size + i]. *)
let hw_head s = s
let hw_rtail t s = t.shards + s
let hw_rbuf t s i = (2 * t.shards) + (s * t.rbuf_size) + i

(* Stripes partition the handle range contiguously, so a node's home
   stripe is a pure function of its handle. *)
let stripe_of t p = (Value.handle p - 1) * t.shards / t.capacity
let home_of t ~tid = tid mod t.shards

let create ~backend ~arena ~counters ~shards ~batch ~threads () =
  if shards < 1 then invalid_arg "Freestore.create: shards";
  if batch < 1 then invalid_arg "Freestore.create: batch";
  let capacity = Arena.capacity arena in
  if shards > capacity then invalid_arg "Freestore.create: shards > capacity";
  (* Chain each stripe's handle range, low handle first. *)
  let firsts = Array.make shards Value.null in
  for h = capacity downto 1 do
    let p = Value.of_handle h in
    let s = (h - 1) * shards / capacity in
    Arena.write_mm_next arena p firsts.(s);
    firsts.(s) <- p
  done;
  let rbuf_size = max 4 (2 * batch) in
  let hot =
    Hot.create ~backend
      ((2 * shards) + (shards * rbuf_size))
      ~init:(fun i ->
        if i < shards then Value.pack_stamped ~stamp:0 ~ptr:firsts.(i) else 0)
  in
  {
    arena;
    capacity;
    shards;
    batch;
    threads;
    rbuf_size;
    ctr = counters;
    hot;
    caches =
      Array.init threads (fun _ ->
          B.padded
            { slots = B.padded (Array.make (2 * batch) Value.null); len = 0 });
    park = Park.create ();
    adopt_lock = Atomic.make 0;
  }

(* Every push that makes nodes visible to other threads wakes the
   store's parkers. Cache-local frees never wake — they are invisible
   until spilled, which routes through here. *)
let wake t ~tid = if Park.wake t.park then C.incr t.ctr ~tid Park_wake

(* Push a privately-owned chain [first .. last] onto stripe [s]. *)
let push_chain t ~tid s ~first ~last =
  let rec go () =
    let hv = Hot.read t.hot (hw_head s) in
    Arena.write_mm_next t.arena last (Value.stamped_ptr hv);
    let nw =
      Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:first
    in
    if not (Hot.cas t.hot (hw_head s) ~old:hv ~nw) then begin
      C.incr t.ctr ~tid Free_retry;
      go ()
    end
  in
  go ();
  wake t ~tid

(* Pop up to [max] nodes from stripe [s] as one chain cut. Returns the
   chain's first node and its length (null, 0 when the stripe is
   empty). The walk may read stale [mm_next] words if the head moves
   under us, but it is bounded by [max] and the CAS then fails. *)
let pop_chain t ~tid s ~max =
  let rec go () =
    let hv = Hot.read t.hot (hw_head s) in
    let first = Value.stamped_ptr hv in
    if Value.is_null first then (Value.null, 0)
    else begin
      let last = ref first and n = ref 1 in
      let walking = ref true in
      while !walking && !n < max do
        let nx = Arena.read_mm_next t.arena !last in
        if Value.is_null nx then walking := false
        else begin
          last := nx;
          incr n
        end
      done;
      let next_head = Arena.read_mm_next t.arena !last in
      let nw =
        Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:next_head
      in
      if Hot.cas t.hot (hw_head s) ~old:hv ~nw then (first, !n)
      else begin
        C.incr t.ctr ~tid Alloc_retry;
        go ()
      end
    end
  in
  go ()

(* Route one free through stripe [s]'s return buffer: claim a slot by
   FAA, install with a 0 -> node CAS. A full/contended slot falls back
   to a direct head push — the buffer is an optimisation, not custody:
   nodes are never parked outside a stripe, a cache or a slot. *)
let push_remote t ~tid s node =
  C.incr t.ctr ~tid Free_remote;
  let i = Hot.faa t.hot (hw_rtail t s) 1 mod t.rbuf_size in
  if Hot.cas t.hot (hw_rbuf t s i) ~old:0 ~nw:node then wake t ~tid
  else push_chain t ~tid s ~first:node ~last:node

(* Drain stripe [s]'s return buffer into this thread's cache; anything
   beyond the cache's space is re-chained onto the stripe head. Safe
   for any thread (slots are swapped out atomically). *)
let drain_rbuf t ~tid s =
  let c = t.caches.(tid) in
  let over_first = ref Value.null and over_last = ref Value.null in
  for i = 0 to t.rbuf_size - 1 do
    let v = Hot.swap t.hot (hw_rbuf t s i) 0 in
    if v <> 0 then
      if c.len < 2 * t.batch then begin
        c.slots.(c.len) <- v;
        c.len <- c.len + 1
      end
      else begin
        Arena.write_mm_next t.arena v !over_first;
        if Value.is_null !over_first then over_last := v;
        over_first := v
      end
  done;
  if not (Value.is_null !over_first) then
    push_chain t ~tid s ~first:!over_first ~last:!over_last

let fill_from_chain t ~tid chain n =
  let c = t.caches.(tid) in
  let p = ref chain in
  for _ = 1 to n do
    c.slots.(c.len) <- !p;
    c.len <- c.len + 1;
    p := Arena.read_mm_next t.arena !p
  done

(* One full refill pass: own return buffer, then the home stripe, then
   a round-robin steal over the other stripes (head first, then their
   return buffers). Returns [true] when the cache is non-empty. *)
let refill t ~tid =
  C.incr t.ctr ~tid Cache_refill;
  let c = t.caches.(tid) in
  let home = home_of t ~tid in
  drain_rbuf t ~tid home;
  if c.len = 0 then begin
    let chain, n = pop_chain t ~tid home ~max:t.batch in
    if n > 0 then fill_from_chain t ~tid chain n
  end;
  let k = ref 1 in
  while c.len = 0 && !k < t.shards do
    let s = (home + !k) mod t.shards in
    C.incr t.ctr ~tid Steal;
    let chain, n = pop_chain t ~tid s ~max:t.batch in
    if n > 0 then fill_from_chain t ~tid chain n
    else drain_rbuf t ~tid s;
    incr k
  done;
  c.len > 0

let alloc t ~tid =
  let c = t.caches.(tid) in
  if c.len > 0 || refill t ~tid then begin
    c.len <- c.len - 1;
    Some c.slots.(c.len)
  end
  else None

let free t ~tid node =
  let c = t.caches.(tid) in
  c.slots.(c.len) <- node;
  c.len <- c.len + 1;
  if c.len = 2 * t.batch then begin
    C.incr t.ctr ~tid Cache_spill;
    let home = home_of t ~tid in
    let hfirst = ref Value.null and hlast = ref Value.null in
    for _ = 1 to t.batch do
      c.len <- c.len - 1;
      let p = c.slots.(c.len) in
      let s = stripe_of t p in
      if s = home then begin
        Arena.write_mm_next t.arena p !hfirst;
        if Value.is_null !hfirst then hlast := p;
        hfirst := p
      end
      else push_remote t ~tid s p
    done;
    if not (Value.is_null !hfirst) then
      push_chain t ~tid home ~first:!hfirst ~last:!hlast
  end

(* Recovery --------------------------------------------------------- *)

(* Drain declared-dead threads' private caches back onto the shared
   stripes. The caches are unsynchronised single-owner state, so this
   is only sound once the owners are permanently stopped (the
   quiescent-survivors declaration contract of [Mm_intf.declare_dead]);
   the CAS guard serialises concurrent adopters — the loser returns 0
   and simply retries its allocation, since the winner's pushes wake
   the store's parkers anyway. Returns the number of nodes returned to
   circulation. *)
let adopt t ~tid ~dead =
  if not (Atomic.compare_and_set t.adopt_lock 0 1) then 0
  else begin
    let n = ref 0 in
    Array.iteri
      (fun id is_dead ->
        if is_dead && id < t.threads && id <> tid then begin
          let c = t.caches.(id) in
          while c.len > 0 do
            c.len <- c.len - 1;
            let p = c.slots.(c.len) in
            C.incr t.ctr ~tid Recovery_adopt;
            incr n;
            push_chain t ~tid (stripe_of t p) ~first:p ~last:p
          done
        end)
      dead;
    Atomic.set t.adopt_lock 0;
    !n
  end

(* Parking --------------------------------------------------------- *)

(* Any node visible outside a thread cache: a non-null stripe head or
   an occupied return slot. *)
let any_visible t =
  let rec heads s =
    s < t.shards
    && ((not (Value.is_null (Value.stamped_ptr (Hot.read t.hot (hw_head s)))))
       || heads (s + 1))
  in
  let rec bufs s i =
    s < t.shards
    && (if i < t.rbuf_size then
          Hot.read t.hot (hw_rbuf t s i) <> 0 || bufs s (i + 1)
        else bufs (s + 1) 0)
  in
  heads 0 || bufs 0 0

let wait_free t ~tid ~timeout_ns =
  let gen = Park.prepare t.park in
  if any_visible t then Park.cancel t.park
  else begin
    C.incr t.ctr ~tid Park_wait;
    Park.park t.park ~gen ~timeout_ns
  end

let waiters t = Park.waiters t.park

(* Quiescent inspection. *)

let cached t ~tid = t.caches.(tid).len

let scratch_blocks t =
  List.concat
    (List.init t.threads (fun tid ->
         let c = t.caches.(tid) in
         [
           B.owned ~owner:tid "cache" ~used:2 c;
           B.owned ~owner:tid "slots" ~used:(2 * t.batch) c.slots;
         ]))

let buffered t =
  let n = ref 0 in
  for s = 0 to t.shards - 1 do
    for i = 0 to t.rbuf_size - 1 do
      if Hot.read t.hot (hw_rbuf t s i) <> 0 then incr n
    done
  done;
  !n

let iter_free t ~violation ~f =
  for s = 0 to t.shards - 1 do
    Arena.iter_chain t.arena
      ~head:(Value.stamped_ptr (Hot.read t.hot (hw_head s)))
      ~violation:(fun () -> violation (Printf.sprintf "cycle in stripe %d" s))
      ~f:(fun p ->
        f p;
        true)
  done;
  for s = 0 to t.shards - 1 do
    for i = 0 to t.rbuf_size - 1 do
      let v = Hot.read t.hot (hw_rbuf t s i) in
      if v <> 0 then f v
    done
  done;
  Array.iter
    (fun c ->
      for i = 0 to c.len - 1 do
        f c.slots.(i)
      done)
    t.caches
