[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The "default lock-free memory management scheme" the paper compares
   against (§5): reference counting in the style of Valois [19] as
   corrected by Michael & Scott [14].

   - [deref] is the unbounded-retry loop the paper's §3 describes:
     read the link, FAA the target's count, re-read the link; if it
     changed, undo and try again. Lock-free, not wait-free — a
     concurrent updater can force any number of retries (experiment
     E2 measures exactly this against the paper's bounded scheme).
   - The free-list is a single Treiber stack whose head carries a
     modification stamp (tagged pointer), the classic ABA fix; the
     pop is additionally protected by the reference count, as in §3.1.

   Reference-count conventions are identical to [Wfrc]: two units per
   reference, odd value = claimed by the allocator. *)

module B = Atomics.Backend
module C = Atomics.Counters
module Hot = Atomics.Hot
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena
module Freestore = Shmem.Freestore

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  hot : Hot.t; (* one slot: the stamped free-list head *)
  store : Freestore.t option; (* sharded Native free store (else legacy) *)
  work : int array array; (* per-thread release work stacks *)
  scratch : int array array; (* per-thread link-collect buffers *)
  dead : bool array; (* tids declared permanently stopped *)
}

let hw_head = 0

let name = "lfrc"
let refcounted = true
let config t = t.cfg
let arena t = t.arena
let counters t = t.ctr

let create (cfg : Mm_intf.config) =
  let backend = cfg.backend in
  let layout =
    Layout.create ~num_links:cfg.num_links ~num_data:cfg.num_data
  in
  let arena =
    Arena.create ~backend ~layout ~capacity:cfg.capacity
      ~num_roots:cfg.num_roots ()
  in
  for h = 1 to cfg.capacity do
    let p = Value.of_handle h in
    Arena.write_mm_next arena p
      (if h < cfg.capacity then Value.of_handle (h + 1) else Value.null);
    Arena.write arena (Arena.mm_ref_addr arena p) 1
  done;
  let ctr = C.create ~backend ~threads:cfg.threads () in
  let store =
    if Mm_intf.sharded cfg then
      Some
        (Freestore.create ~backend ~arena ~counters:ctr
           ~shards:cfg.shards ~batch:cfg.batch ~threads:cfg.threads ())
    else None
  in
  {
    cfg;
    backend;
    arena;
    ctr;
    (* the single Treiber head is the scheme's one global hot word;
       under the sharded store it is unused and stays null *)
    hot =
      Hot.create ~backend 1 ~init:(fun _ ->
          Value.pack_stamped ~stamp:0
            ~ptr:(if Mm_intf.sharded cfg then Value.null else Value.of_handle 1));
    store;
    work =
      Array.init cfg.threads (fun _ ->
          Array.make (max 64 (4 * (cfg.num_links + 1))) 0);
    scratch =
      Array.init cfg.threads (fun _ -> Array.make (max 1 cfg.num_links) 0);
    dead = Array.make cfg.threads false;
  }

let declare_dead t ~tid =
  if tid < 0 || tid >= t.cfg.threads then invalid_arg "Lfrc.declare_dead";
  t.dead.(tid) <- true

let dead t =
  let acc = ref [] in
  for id = t.cfg.threads - 1 downto 0 do
    if t.dead.(id) then acc := id :: !acc
  done;
  !acc

let enter_op _t ~tid:_ = ()
let exit_op _t ~tid:_ = ()

(* Release / reclaim: same R1–R2 agreement as the wait-free scheme
   (this part of Valois' scheme is already wait-free; the lock-freedom
   gap is in deref and alloc). As in [Core.Gc], the link recursion runs
   on a reusable per-thread int-array stack so the hot path allocates
   nothing; the pop order — and so the shared-memory op sequence —
   matches the historical list worklist exactly. *)
let work_push t ~tid sp v =
  let stack = t.work.(tid) in
  let stack =
    if sp < Array.length stack then stack
    else begin
      let bigger = Array.make (2 * Array.length stack) 0 in
      Array.blit stack 0 bigger 0 (Array.length stack);
      t.work.(tid) <- bigger;
      bigger
    end
  in
  stack.(sp) <- v;
  sp + 1

let rec release t ~tid p =
  C.incr t.ctr ~tid Release;
  release_work t ~tid (work_push t ~tid 0 (Value.unmark p))

and release_work t ~tid sp =
  if sp > 0 then begin
    let sp = sp - 1 in
    let node = t.work.(tid).(sp) in
    let collected = Arena.release_collect t.arena node ~out:t.scratch.(tid) in
    if collected >= 0 then begin
      let sp = push_collected t ~tid ~k:0 ~collected sp in
      C.incr t.ctr ~tid Node_reclaimed;
      free_node t ~tid node;
      release_work t ~tid sp
    end
    else release_work t ~tid sp
  end
[@@wfrc.bounded
  "work-stack cascade: each iteration pops one claimed node and pushes only \
   that node's collected link targets, so the stack drains after at most \
   one entry per transitively reclaimed node (Valois's bounded release \
   recursion)"]

and push_collected t ~tid ~k ~collected sp =
  if k >= collected then sp
  else
    push_collected t ~tid ~k:(k + 1) ~collected
      (work_push t ~tid sp (Value.unmark t.scratch.(tid).(k)))

and free_node t ~tid node =
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  match t.store with
  | Some fs ->
      (* The node was just claimed (mm_ref = 1) and keeps that count
         throughout its stay in the cache/stripes. *)
      Freestore.free fs ~tid node
  | None ->
      let rec push () =
        let hv = Hot.read t.hot hw_head in
        Arena.write_mm_next t.arena node (Value.stamped_ptr hv);
        let nw =
          Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:node
        in
        if not (Hot.cas t.hot hw_head ~old:hv ~nw) then begin
          C.incr t.ctr ~tid Free_retry;
          push ()
        end
      in
      push ()

let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  match t.store with
  | Some fs ->
      (* An empty pass is not yet out-of-memory: nodes may be parked
         in other threads' caches, so retry a bounded number of full
         passes (same envelope as WFRC's A7 scan limit). The cached
         node carries mm_ref = 1; FAA (not a store) to 2, because a
         stale Valois deref may still land a transient +2/-2 pair on
         it concurrently. *)
      let limit = (16 * t.cfg.threads) + 16 in
      let rec claim rounds ~waits ~adopted =
        match Freestore.alloc fs ~tid with
        | Some node ->
            Arena.faa_mm_ref t.arena node 1;
            Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
            node
        | None ->
            if rounds >= limit then begin
              (* Bounded wait: before surfacing backpressure, adopt
                 declared-dead peers' caches once — those nodes are
                 invisible to the store and generate no wake. Failing
                 that, a typed [Out_of_nodes] (never an unbounded
                 park): the caller owns the back-off policy. *)
              if (not adopted) && Freestore.adopt fs ~tid ~dead:(dead t) > 0
              then claim 0 ~waits ~adopted:true
              else begin
                C.incr t.ctr ~tid Oom_backpressure;
                raise (Mm_intf.Out_of_nodes { retries = rounds; waits })
              end
            end
            else begin
              C.incr t.ctr ~tid Alloc_retry;
              (* Park instead of spinning: a remote free's stripe push
                 or return-slot install wakes us. Bounded, because
                 nodes parked in other domains' caches are invisible
                 to the store and produce no wake. *)
              Freestore.wait_free fs ~tid ~timeout_ns:200_000;
              claim (rounds + 1) ~waits:(waits + 1) ~adopted
            end
      [@@wfrc.bounded
        "round counter: rounds advances toward limit at every pass; the \
         single reset is gated by the one-shot adopted flag, so at most \
         2*limit rounds before typed Out_of_nodes backpressure"]
      in
      claim 0 ~waits:0 ~adopted:false
  | None ->
      let rec pop () =
        let hv = Hot.read t.hot hw_head in
        let node = Value.stamped_ptr hv in
        if Value.is_null node then raise Mm_intf.Out_of_memory;
        (* §3.1: raise the count before reading mm_next so the node
           cannot be reclaimed (and thus re-pushed with a different
           next). *)
        Arena.faa_mm_ref t.arena node 2;
        let next = Arena.read_mm_next t.arena node in
        let nw =
          Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:next
        in
        if Hot.cas t.hot hw_head ~old:hv ~nw then begin
          Arena.faa_mm_ref t.arena node (-1);
          Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
          node
        end
        else begin
          C.incr t.ctr ~tid Alloc_retry;
          release t ~tid node;
          pop ()
        end
      in
      pop ()

(* The Valois de-reference: unbounded retries under contention. *)
let deref t ~tid link =
  C.incr t.ctr ~tid Deref;
  let rec attempt () =
    let node = Arena.read t.arena link in
    if Value.is_null node then node
    else begin
      Arena.faa_mm_ref t.arena node 2;
      if Arena.read t.arena link = node then node
      else begin
        C.incr t.ctr ~tid Deref_retry;
        release t ~tid node;
        attempt ()
      end
    end
  in
  attempt ()
[@@wfrc.expect_unbounded
  "the Valois read-FAA-validate retry: under contention a concurrent \
   link update invalidates the snapshot indefinitely — this is exactly \
   the unbounded baseline the paper's D1-D10 is measured against"]

let copy_ref t ~tid:_ p =
  if not (Value.is_null p) then Arena.faa_mm_ref t.arena p 2;
  p

let cas_link t ~tid link ~old ~nw =
  C.incr t.ctr ~tid Cas_attempt;
  (* Pre-add the link's share on [nw] so no window exists in which the
     link points at a node whose count omits it. *)
  if not (Value.is_null nw) then Arena.faa_mm_ref t.arena nw 2;
  if Arena.cas t.arena link ~old ~nw then begin
    if not (Value.is_null old) then release t ~tid old;
    true
  end
  else begin
    if not (Value.is_null nw) then release t ~tid nw;
    C.incr t.ctr ~tid Cas_failure;
    false
  end

(* No-race contexts only (§3.2): re-point the link, moving its share. *)
let store_link t ~tid link p =
  let old = Arena.read t.arena link in
  if not (Value.is_null p) then Arena.faa_mm_ref t.arena p 2;
  Arena.write t.arena link p;
  if not (Value.is_null old) then release t ~tid old
let terminate _t ~tid:_ _p = ()

(* The one quiescent walk, read by the auditor, [validate] and
   [free_count]: damage goes to [violations] instead of raising. The
   scheme has no per-thread custody (no retired lists, no
   announcements). *)
let custody t =
  let cap = t.cfg.capacity in
  let free = Array.make (cap + 1) false in
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  let record =
    Mm_intf.mark_free free ~violation
      ~twice:(Printf.sprintf "node #%d on the free-list twice")
  in
  (match t.store with
  | Some fs ->
      (* Stripe chains, return-buffer slots and per-thread caches are
         all allocator custody: they count as [free] so the auditor's
         node partition stays conservative with a populated store. *)
      Freestore.iter_free fs ~violation ~f:(fun p -> ignore (record p))
  | None ->
      Arena.iter_chain t.arena
        ~head:(Value.stamped_ptr (Hot.read t.hot hw_head))
        ~violation:(fun () -> violation "cycle in free-list")
        ~f:record);
  Mm_intf.
    {
      free;
      pending = [];
      pinned = [];
      deferred = [];
      violations = List.rev !violations;
    }

let free_count t = Mm_intf.count_free (custody t)

(* Crash recovery: the scheme has no announcement/retired custody, so
   recovery is the reference-count anomaly fixpoint (crashed derefs
   and cas_links strand +2 surpluses; crashed reclamations strand
   zero-inbound nodes) plus adoption of dead threads' store caches. *)
let revive t ~tid node =
  for i = 0 to t.cfg.num_links - 1 do
    let v = Arena.read_clear_link t.arena node i in
    if not (Value.is_null v) then release t ~tid (Value.unmark v)
  done;
  Arena.write t.arena (Arena.mm_ref_addr t.arena node) 1;
  C.incr t.ctr ~tid Node_reclaimed;
  free_node t ~tid node

let recover t ~tid =
  if not (Array.exists Fun.id t.dead) then Mm_intf.no_recovery
  else begin
    let revived, drops =
      Mm_intf.Rc_anomaly.run ~arena:t.arena
        ~custody:(fun () -> custody t)
        ~release:(fun p ->
          C.incr t.ctr ~tid Recovery_release;
          release t ~tid p)
        ~revive:(fun p ->
          C.incr t.ctr ~tid Recovery_adopt;
          revive t ~tid p)
    in
    let cached =
      match t.store with
      | Some fs -> Freestore.adopt fs ~tid ~dead:(dead t)
      | None -> 0
    in
    { Mm_intf.adopted = revived + cached; released = drops; cleared = 0 }
  end

let validate t =
  Mm_intf.check_custody ~arena:t.arena ~refcounted (custody t)

(* Sentinels need no special handling under reference counting: the
   creator simply keeps the allocation reference forever. *)
let make_immortal _t ~tid:_ _p = ()
