[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* Michael's hazard pointers [11, 12], behind the common MM signature.

   This is the §1 comparison point the paper criticises for supporting
   only "a fixed number of references from process owned variables":
   each thread owns K hazard slots; [deref] publishes the target in a
   slot and re-validates the link; [terminate] retires the node, and a
   scan frees retired nodes not present in any thread's slots.

   Consequences faithfully reproduced here:
   - [deref] is lock-free, not wait-free (revalidation can retry
     forever under contention);
   - a thread can hold at most K references at a time ([deref] fails
     hard beyond that);
   - reclamation is driven by [terminate] — the client must guarantee
     the node is unreachable from the structure, which is why the
     multi-level skiplist (lib/structures/pqueue.ml) does not run on
     this scheme. That restriction is the paper's point.

   The free pool is a stamp-tagged Treiber stack. Reference-count
   fields exist in the arena but are not used by this scheme. *)

module P = Atomics.Primitives
module B = Atomics.Backend
module C = Atomics.Counters
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena
module Freestore = Shmem.Freestore

type per_thread = {
  slots : P.cell array;   (* shared: scanners read these *)
  counts : int array;     (* local: references held per slot *)
  mutable retired : Value.ptr list;
  mutable retired_len : int;
}

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  head : P.cell;          (* stamped free-pool head *)
  store : Freestore.t option; (* sharded Native free store (else legacy) *)
  threads : per_thread array;
  k : int;
  threshold : int;
  dead : bool array; (* tids declared permanently stopped *)
  mutable validate_deref : bool;
  (* [true] in every real configuration. [unsafe_skip_validation]
     clears it to seed the classic hazard-pointer bug — publishing the
     slot without re-validating the link — for detector non-vacuity
     tests. *)
}

let name = "hp"
let refcounted = false
let config t = t.cfg
let arena t = t.arena
let counters t = t.ctr
let slots_per_thread t = t.k

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
      (if h < cfg.capacity then Value.of_handle (h + 1) else Value.null)
  done;
  (* Enough slots for the deepest structure we ship plus slack. *)
  let k = max 16 ((2 * cfg.num_links) + 8) in
  (* Per-thread retirement threshold: bounded both by the classic
     2KN rule and by a fraction of the pool divided across threads, so
     the aggregate retired backlog cannot starve a small arena. *)
  let threshold =
    max 2
      (min (2 * k * cfg.threads) ((cfg.capacity / (4 * cfg.threads)) + 1))
  in
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
    head =
      B.make_contended backend
        (Value.pack_stamped ~stamp:0
           ~ptr:(if store = None then Value.of_handle 1 else Value.null));
    store;
    threads =
      Array.init cfg.threads (fun _ ->
          {
            (* hazard slots are owner-written, scanner-read: pad them
               so a scan does not invalidate the owner's lines *)
            slots = Array.init k (fun _ -> B.make_contended backend 0);
            counts = Array.make k 0;
            retired = [];
            retired_len = 0;
          });
    k;
    threshold;
    dead = Array.make cfg.threads false;
    validate_deref = true;
  }

let declare_dead t ~tid =
  if tid < 0 || tid >= t.cfg.threads then invalid_arg "Hazard.declare_dead";
  t.dead.(tid) <- true

let dead t =
  let acc = ref [] in
  for id = t.cfg.threads - 1 downto 0 do
    if t.dead.(id) then acc := id :: !acc
  done;
  !acc

let unsafe_skip_validation t = t.validate_deref <- false

let enter_op _t ~tid:_ = ()
let exit_op _t ~tid:_ = ()

let find_slot pt u =
  (* [counts] is thread-local; only the publish in [slots] is shared,
     and reading our own slot needs no scheduling point. *)
  let rec go i =
    if i >= Array.length pt.counts then None
    else if pt.counts.(i) > 0 && Atomic.get pt.slots.(i) = u then Some i
    else go (i + 1)
  in
  go 0

let find_empty pt =
  let rec go i =
    if i >= Array.length pt.counts then
      failwith "Hazard: out of hazard slots (fixed-reference limit hit)"
    else if pt.counts.(i) = 0 then i
    else go (i + 1)
  in
  go 0

(* Free-pool push: the node is certainly private here. *)
let pool_push t ~tid node =
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  match t.store with
  | Some fs -> Freestore.free fs ~tid node
  | None ->
      let rec push () =
        let hv = B.read t.backend t.head in
        Arena.write_mm_next t.arena node (Value.stamped_ptr hv);
        let nw =
          Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:node
        in
        if not (B.cas t.backend t.head ~old:hv ~nw) then begin
          C.incr t.ctr ~tid Free_retry;
          push ()
        end
      in
      push ()

(* Forward declaration: [scan] is defined below but alloc needs it for
   pressure-driven reclamation. *)
let scan_ref :
    (t -> tid:int -> unit) ref =
  ref (fun _ ~tid:_ -> ())

let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  (* Register the fresh node in a hazard slot so the uniform "every
     acquired reference is released" discipline of Mm_intf applies to
     allocations too. The node is exclusively owned, so no validation
     is needed. *)
  let register node =
    let pt = t.threads.(tid) in
    let s = find_empty pt in
    B.write t.backend pt.slots.(s) node;
    pt.counts.(s) <- 1;
    Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
    node
  in
  let scanned = ref false in
  match t.store with
  | Some fs ->
      (* Pool pressure: first reclaim our own retired backlog, then
         retry bounded full passes — an empty pass may just mean the
         free nodes are parked in other threads' caches. *)
      let limit = (16 * t.cfg.threads) + 16 in
      let rec claim rounds ~waits ~adopted =
        match Freestore.alloc fs ~tid with
        | Some node -> register node
        | None ->
            if not !scanned then begin
              scanned := true;
              !scan_ref t ~tid;
              claim rounds ~waits ~adopted
            end
            else if rounds >= limit then begin
              (* Bounded wait: adopt declared-dead peers' caches once,
                 then surface typed backpressure rather than parking
                 forever on nodes nobody will ever return. *)
              if (not adopted) && Freestore.adopt fs ~tid ~dead:(dead t) > 0
              then claim 0 ~waits ~adopted:true
              else begin
                C.incr t.ctr ~tid Oom_backpressure;
                raise (Mm_intf.Out_of_nodes { retries = rounds; waits })
              end
            end
            else begin
              C.incr t.ctr ~tid Alloc_retry;
              (* Park until a remote free publishes nodes; bounded
                 timeout because other domains' caches are invisible
                 to the store and produce no wake. *)
              Freestore.wait_free fs ~tid ~timeout_ns:200_000;
              claim (rounds + 1) ~waits:(waits + 1) ~adopted
            end
      [@@wfrc.bounded
        "round counter: rounds advances toward limit at every pass; the \
         scan retry and the adopt reset are each gated by a one-shot \
         flag, so at most 2*limit+1 rounds before typed Out_of_nodes"]
      in
      claim 0 ~waits:0 ~adopted:false
  | None ->
      let rec pop () =
        let hv = B.read t.backend t.head in
        let node = Value.stamped_ptr hv in
        if Value.is_null node then
          if not !scanned then begin
            (* pool pressure: reclaim our own retired backlog and retry *)
            scanned := true;
            !scan_ref t ~tid;
            pop ()
          end
          else raise Mm_intf.Out_of_memory
        else
          let next = Arena.read_mm_next t.arena node in
          let nw =
            Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:next
          in
          if B.cas t.backend t.head ~old:hv ~nw then register node
          else begin
            C.incr t.ctr ~tid Alloc_retry;
            pop ()
          end
      [@@wfrc.expect_unbounded
        "stamped Treiber pop: the head CAS can lose to concurrent \
         pushes/pops indefinitely (plus a one-shot scan-and-retry on \
         pool pressure) — the legacy lock-free allocation path"]
      in
      pop ()

let rec deref t ~tid link =
  C.incr t.ctr ~tid Deref;
  let pt = t.threads.(tid) in
  let w = Arena.read t.arena link in
  if Value.is_null w then w
  else begin
    let u = Value.unmark w in
    match find_slot pt u with
    | Some s ->
        (* Already hazarded by us: protected, no revalidation needed. *)
        pt.counts.(s) <- pt.counts.(s) + 1;
        w
    | None ->
        let s = find_empty pt in
        B.write t.backend pt.slots.(s) u;
        if (not t.validate_deref) || Arena.read t.arena link = w then begin
          pt.counts.(s) <- 1;
          w
        end
        else begin
          B.write t.backend pt.slots.(s) 0;
          C.incr t.ctr ~tid Deref_retry;
          deref t ~tid link
        end
  end
[@@wfrc.expect_unbounded
  "hazard-pointer publish-validate retry: a concurrent link update \
   between the slot write and the re-read invalidates the hazard \
   indefinitely — the lock-free baseline the paper compares against"]

let release t ~tid p =
  if not (Value.is_null p) then begin
    C.incr t.ctr ~tid Release;
    let pt = t.threads.(tid) in
    let u = Value.unmark p in
    match find_slot pt u with
    | Some s ->
        pt.counts.(s) <- pt.counts.(s) - 1;
        if pt.counts.(s) = 0 then B.write t.backend pt.slots.(s) 0
    | None -> failwith "Hazard.release: pointer not held by this thread"
  end

(* Duplicate a reference. The caller holds the node (a hazard slot or
   an immortal sentinel), so publishing an extra slot without
   revalidation is safe. *)
let copy_ref t ~tid p =
  if not (Value.is_null p) then begin
    let pt = t.threads.(tid) in
    let u = Value.unmark p in
    match find_slot pt u with
    | Some s -> pt.counts.(s) <- pt.counts.(s) + 1
    | None ->
        let s = find_empty pt in
        B.write t.backend pt.slots.(s) u;
        pt.counts.(s) <- 1
  end;
  p

let cas_link t ~tid link ~old ~nw =
  C.incr t.ctr ~tid Cas_attempt;
  if Arena.cas t.arena link ~old ~nw then true
  else begin
    C.incr t.ctr ~tid Cas_failure;
    false
  end

let store_link t ~tid:_ link p = Arena.write t.arena link p

let scan t ~tid =
  C.incr t.ctr ~tid Hp_scan;
  let hazards = Hashtbl.create 64 in
  Array.iter
    (fun pt ->
      Array.iter
        (fun cell ->
          let v = B.read t.backend cell in
          if not (Value.is_null v) then Hashtbl.replace hazards v ())
        pt.slots)
    t.threads;
  let pt = t.threads.(tid) in
  let keep, free =
    List.partition (fun p -> Hashtbl.mem hazards p) pt.retired
  in
  pt.retired <- keep;
  pt.retired_len <- List.length keep;
  List.iter
    (fun p ->
      C.incr t.ctr ~tid Node_reclaimed;
      pool_push t ~tid p)
    free

let terminate t ~tid p =
  Mm_intf.Events.emit ~tid (Value.unmark p) Mm_intf.Events.Retire;
  let pt = t.threads.(tid) in
  pt.retired <- Value.unmark p :: pt.retired;
  pt.retired_len <- pt.retired_len + 1;
  if pt.retired_len >= t.threshold then scan t ~tid

(* Quiescent inspection. *)
let free_set t =
  let cap = t.cfg.capacity in
  let seen = Array.make (cap + 1) false in
  let record where p =
    let h = Value.handle p in
    if seen.(h) then failwith ("Hazard: node reachable twice (" ^ where ^ ")");
    seen.(h) <- true
  in
  (match t.store with
  | Some fs ->
      Freestore.iter_free fs ~violation:failwith ~f:(fun p -> record "pool" p)
  | None ->
      let rec walk p steps =
        if steps > cap then failwith "Hazard: cycle in free pool"
        else if not (Value.is_null p) then begin
          record "pool" p;
          walk (Arena.read_mm_next t.arena p) (steps + 1)
        end
      in
      walk (Value.stamped_ptr (B.read t.backend t.head)) 0);
  Array.iter
    (fun pt -> List.iter (fun p -> record "retired" p) pt.retired)
    t.threads;
  seen

let free_count t =
  let seen = free_set t in
  let c = ref 0 in
  Array.iter (fun b -> if b then incr c) seen;
  !c

(* Tolerant snapshot for the auditor. [free] covers only the pool:
   retired nodes are [pending] under their retiring thread (a crashed
   owner strands its whole backlog — exactly the hazard-pointer
   failure mode the paper contrasts with); published hazard slots are
   [pinned] (a crashed thread never clears them, blocking every
   scanner forever). *)
let custody t =
  let cap = t.cfg.capacity in
  let free = Array.make (cap + 1) false in
  let violations = ref [] in
  let record p =
    let h = Value.handle p in
    if free.(h) then
      violations := Printf.sprintf "node #%d in the pool twice" h :: !violations
    else free.(h) <- true
  in
  (match t.store with
  | Some fs ->
      (* Stripe chains, return buffers and caches are all [free]
         custody for the auditor's partition. *)
      Freestore.iter_free fs
        ~violation:(fun s -> violations := s :: !violations)
        ~f:record
  | None ->
      let rec walk p steps =
        if steps > cap then violations := "cycle in free pool" :: !violations
        else if not (Value.is_null p) then begin
          let h = Value.handle p in
          if free.(h) then
            violations :=
              Printf.sprintf "node #%d in the pool twice" h :: !violations
          else begin
            free.(h) <- true;
            walk (Arena.read_mm_next t.arena p) (steps + 1)
          end
        end
      in
      walk (Value.stamped_ptr (B.read t.backend t.head)) 0);
  let pending = ref [] and pinned = ref [] in
  Array.iteri
    (fun tid pt ->
      List.iter
        (fun p ->
          let h = Value.handle p in
          if free.(h) then
            violations :=
              Printf.sprintf "retired node #%d also in the pool" h
              :: !violations
          else pending := (tid, h) :: !pending)
        pt.retired;
      Array.iter
        (fun cell ->
          let v = B.read t.backend cell in
          if not (Value.is_null v) then
            pinned := (tid, Value.handle v) :: !pinned)
        pt.slots)
    t.threads;
  Mm_intf.
    {
      free;
      pending = !pending;
      pinned = !pinned;
      deferred = [];
      violations = List.rev !violations;
    }

(* Crash recovery: clear the dead threads' published hazard slots (a
   crashed reader pins its targets for every scanner, forever), adopt
   their stranded retired backlogs, then run one scan — with the dead
   pins gone it frees everything whose only blocker was the crash.
   Finally sweep orphans: a victim that crashed between unlinking a
   node and retiring it strands the node outside every custody
   record, where only a root-marking pass can find it. *)
let recover t ~tid =
  if not (Array.exists Fun.id t.dead) then Mm_intf.no_recovery
  else begin
    let adopted = ref 0 and cleared = ref 0 in
    let me = t.threads.(tid) in
    for id = 0 to t.cfg.threads - 1 do
      if t.dead.(id) && id <> tid then begin
        let pt = t.threads.(id) in
        for s = 0 to t.k - 1 do
          if not (Value.is_null (B.read t.backend pt.slots.(s))) then begin
            B.write t.backend pt.slots.(s) 0;
            incr cleared
          end;
          pt.counts.(s) <- 0
        done;
        List.iter
          (fun p ->
            C.incr t.ctr ~tid Recovery_adopt;
            incr adopted;
            me.retired <- p :: me.retired;
            me.retired_len <- me.retired_len + 1)
          pt.retired;
        pt.retired <- [];
        pt.retired_len <- 0
      end
    done;
    scan t ~tid;
    let cached =
      match t.store with
      | Some fs -> Freestore.adopt fs ~tid ~dead:(dead t)
      | None -> 0
    in
    let c = custody t in
    let kept = Array.make (t.cfg.capacity + 1) false in
    List.iter (fun (_, h) -> kept.(h) <- true) c.Mm_intf.pending;
    List.iter (fun (_, h) -> kept.(h) <- true) c.Mm_intf.pinned;
    let swept =
      Mm_intf.Orphan.sweep ~arena:t.arena ~free:c.Mm_intf.free
        ~keep:(fun h -> kept.(h))
        ~reclaim:(fun p ->
          C.incr t.ctr ~tid Recovery_adopt;
          C.incr t.ctr ~tid Node_reclaimed;
          pool_push t ~tid p)
    in
    {
      Mm_intf.adopted = !adopted + cached + swept;
      released = 0;
      cleared = !cleared;
    }
  end

let validate t =
  ignore (free_set t);
  Array.iteri
    (fun tid pt ->
      Array.iteri
        (fun s c ->
          if c <> 0 then
            failwith
              (Printf.sprintf "Hazard: thread %d slot %d still holds %d refs"
                 tid s c);
          let v = Atomic.get pt.slots.(s) in
          if v <> 0 then
            failwith
              (Printf.sprintf "Hazard: thread %d slot %d not cleared" tid s))
        pt.counts)
    t.threads

let () = scan_ref := scan

(* Sentinels are never unlinked or retired, so they need no hazard:
   drop the allocation's slot. *)
let make_immortal t ~tid p = release t ~tid p
