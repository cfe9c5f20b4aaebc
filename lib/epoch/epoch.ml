[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* Epoch-based reclamation (3-epoch scheme), the other mainstream
   deferred-reclamation baseline.

   Threads bracket every structure operation with enter/exit; inside
   the bracket, plain reads of links are safe because a node retired
   by [terminate] during epoch [e] is only recycled after the global
   epoch has advanced twice, which requires every active thread to
   have left epoch [e].

   Like hazard pointers this scheme reclaims on [terminate], so it
   shares HP's applicability restriction (no multi-level skiplist),
   and unlike both RC schemes it is not even non-blocking for
   reclamation: one stalled reader stops the epoch from advancing and
   memory from being recycled — the trade-off the paper's §1 surveys. *)

module P = Atomics.Primitives
module B = Atomics.Backend
module C = Atomics.Counters
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena
module Freestore = Shmem.Freestore

type per_thread = {
  active : P.cell;
  epoch : P.cell;
  bags : Value.ptr list array;  (* indexed by epoch mod 3; local *)
  mutable bag_sizes : int array;
  mutable last_seen : int;
  mutable ops : int;
}

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  global : P.cell;
  head : P.cell; (* stamped free-pool head *)
  store : Freestore.t option; (* sharded Native free store (else legacy) *)
  threads : per_thread array;
  advance_every : int;
  dead : bool array; (* tids declared permanently stopped *)
}

let name = "ebr"
let refcounted = false
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
      (if h < cfg.capacity then Value.of_handle (h + 1) else Value.null)
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
    global = B.make_contended backend 0;
    head =
      B.make_contended backend
        (Value.pack_stamped ~stamp:0
           ~ptr:(if store = None then Value.of_handle 1 else Value.null));
    store;
    threads =
      Array.init cfg.threads (fun _ ->
          {
            (* owner-written, advance-scanner-read: padded per thread *)
            active = B.make_contended backend 0;
            epoch = B.make_contended backend 0;
            bags = [| []; []; [] |];
            bag_sizes = Array.make 3 0;
            last_seen = 0;
            ops = 0;
          });
    advance_every = 4;
    dead = Array.make cfg.threads false;
  }

let declare_dead t ~tid =
  if tid < 0 || tid >= t.cfg.threads then invalid_arg "Epoch.declare_dead";
  t.dead.(tid) <- true

let dead t =
  let acc = ref [] in
  for id = t.cfg.threads - 1 downto 0 do
    if t.dead.(id) then acc := id :: !acc
  done;
  !acc

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

(* Free this thread's bag for epoch slot [(e+1) mod 3]: those nodes
   were retired at epoch [e-2] or earlier and every thread has since
   passed through at least one epoch boundary. *)
let collect t ~tid e =
  let pt = t.threads.(tid) in
  let slot = (e + 1) mod 3 in
  let victims = pt.bags.(slot) in
  if victims <> [] then begin
    pt.bags.(slot) <- [];
    pt.bag_sizes.(slot) <- 0;
    List.iter
      (fun p ->
        C.incr t.ctr ~tid Node_reclaimed;
        pool_push t ~tid p)
      victims
  end

let try_advance t ~tid =
  let e = B.read t.backend t.global in
  let blocked = ref false in
  Array.iter
    (fun pt ->
      if
        B.read t.backend pt.active = 1 && B.read t.backend pt.epoch <> e
      then blocked := true)
    t.threads;
  if (not !blocked) && B.cas t.backend t.global ~old:e ~nw:(e + 1) then
    C.incr t.ctr ~tid Epoch_advance

let enter_op t ~tid =
  let pt = t.threads.(tid) in
  B.write t.backend pt.active 1;
  let e = B.read t.backend t.global in
  B.write t.backend pt.epoch e;
  if e <> pt.last_seen then begin
    pt.last_seen <- e;
    collect t ~tid e
  end

let exit_op t ~tid =
  let pt = t.threads.(tid) in
  B.write t.backend pt.active 0;
  pt.ops <- pt.ops + 1;
  if pt.ops mod t.advance_every = 0 then try_advance t ~tid

let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  (* Under pool pressure, try to advance the epoch and drain our own
     bags a few times before declaring out-of-memory. If another
     thread is stalled inside an epoch this cannot make progress —
     EBR's reclamation is blocking, which is part of the comparison. *)
  let pressure = ref 0 in
  let under_pressure () =
    if !pressure >= 6 then raise Mm_intf.Out_of_memory;
    incr pressure;
    (* NB: we may hold epoch-protected references ourselves, so we
       must not republish our epoch here; at most one advance can
       happen while we are inside the bracket, draining one bag
       generation. *)
    try_advance t ~tid;
    let e = B.read t.backend t.global in
    let pt = t.threads.(tid) in
    if e <> pt.last_seen then begin
      pt.last_seen <- e;
      collect t ~tid e
    end
  in
  match t.store with
  | Some fs ->
      (* Collected nodes land in our own cache, so the next pass sees
         them immediately. *)
      let rec claim ~adopted =
        match Freestore.alloc fs ~tid with
        | Some node ->
            Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
            node
        | None ->
            if !pressure >= 6 then begin
              (* Bounded degradation: adopt declared-dead peers'
                 caches once, then surface typed backpressure — a
                 crashed-in-bracket peer jams the epoch forever, so
                 spinning further cannot make progress. *)
              if (not adopted) && Freestore.adopt fs ~tid ~dead:(dead t) > 0
              then claim ~adopted:true
              else begin
                C.incr t.ctr ~tid Oom_backpressure;
                raise
                  (Mm_intf.Out_of_nodes { retries = !pressure; waits = 0 })
              end
            end
            else begin
              under_pressure ();
              C.incr t.ctr ~tid Alloc_retry;
              claim ~adopted
            end
      [@@wfrc.bounded
        "pressure counter: under_pressure advances !pressure toward the \
         bound of 6 at every pass; the single reset is gated by the \
         one-shot adopted flag, so at most 2*6 passes (each a bounded \
         epoch-advance-and-collect) before typed Out_of_nodes"]
      in
      claim ~adopted:false
  | None ->
      let rec pop () =
        let hv = B.read t.backend t.head in
        let node = Value.stamped_ptr hv in
        if Value.is_null node then begin
          under_pressure ();
          pop ()
        end
        else
          let next = Arena.read_mm_next t.arena node in
          let nw =
            Value.pack_stamped ~stamp:(Value.stamped_stamp hv + 1) ~ptr:next
          in
          if B.cas t.backend t.head ~old:hv ~nw then begin
            Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
            node
          end
          else begin
            C.incr t.ctr ~tid Alloc_retry;
            pop ()
          end
      [@@wfrc.expect_unbounded
        "stamped Treiber pop: the head CAS can lose to concurrent \
         pushes/pops indefinitely, and exhaustion spins through epoch \
         advances — the legacy lock-free allocation path"]
      in
      pop ()

(* Within the epoch bracket a plain read is already safe. *)
let deref t ~tid link =
  C.incr t.ctr ~tid Deref;
  Arena.read t.arena link

let release t ~tid p =
  if not (Value.is_null p) then C.incr t.ctr ~tid Release

let copy_ref _t ~tid:_ p = p

let cas_link t ~tid link ~old ~nw =
  C.incr t.ctr ~tid Cas_attempt;
  if Arena.cas t.arena link ~old ~nw then true
  else begin
    C.incr t.ctr ~tid Cas_failure;
    false
  end

let store_link t ~tid:_ link p = Arena.write t.arena link p

let terminate t ~tid p =
  Mm_intf.Events.emit ~tid (Value.unmark p) Mm_intf.Events.Retire;
  let pt = t.threads.(tid) in
  let e = B.read t.backend t.global in
  let slot = e mod 3 in
  pt.bags.(slot) <- Value.unmark p :: pt.bags.(slot);
  pt.bag_sizes.(slot) <- pt.bag_sizes.(slot) + 1

(* The one quiescent walk, read by the auditor, [validate] and
   [free_count]. Limbo bags are [pending] under their owner: only
   that thread's [collect] empties them, so a crashed owner strands
   every bag generation — and worse, if it crashed inside the bracket
   ([active] still 1) the global epoch can never advance again and
   {e every} thread's bags jam. That unbounded loss is the E12
   comparison point. Nothing is [pinned] node-wise: epochs protect
   eras, not individual nodes. *)
let custody t =
  let cap = t.cfg.capacity in
  let free = Array.make (cap + 1) false in
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  let record =
    Mm_intf.mark_free free ~violation
      ~twice:(Printf.sprintf "node #%d in the pool twice")
  in
  (match t.store with
  | Some fs ->
      (* Stripe chains, return buffers and caches are all [free]
         custody for the auditor's partition. *)
      Freestore.iter_free fs ~violation ~f:(fun p -> ignore (record p))
  | None ->
      Arena.iter_chain t.arena
        ~head:(Value.stamped_ptr (B.read t.backend t.head))
        ~violation:(fun () -> violation "cycle in free pool")
        ~f:record);
  let pending = ref [] in
  Array.iteri
    (fun tid pt ->
      Array.iter
        (List.iter (fun p ->
             let h = Value.handle p in
             if free.(h) then
               violation (Printf.sprintf "bagged node #%d also in the pool" h)
             else pending := (tid, h) :: !pending))
        pt.bags)
    t.threads;
  Mm_intf.
    {
      free;
      pending = !pending;
      pinned = [];
      deferred = [];
      violations = List.rev !violations;
    }

let free_count t = Mm_intf.count_free (custody t)

(* Crash recovery: un-jam the epoch (a thread that crashed inside the
   bracket blocks [try_advance] forever), adopt the dead threads' bag
   generations into the survivor's bags, then advance+collect a few
   rounds — each round frees one of the three slots, so all adopted
   limbo drains back to the pool. Finally sweep orphans: a victim
   that crashed between unlinking a node and bagging it strands the
   node outside every bag, where only a root-marking pass can find
   it. *)
let recover t ~tid =
  if not (Array.exists Fun.id t.dead) then Mm_intf.no_recovery
  else begin
    let adopted = ref 0 and cleared = ref 0 in
    let me = t.threads.(tid) in
    for id = 0 to t.cfg.threads - 1 do
      if t.dead.(id) && id <> tid then begin
        let pt = t.threads.(id) in
        if B.read t.backend pt.active = 1 then begin
          B.write t.backend pt.active 0;
          incr cleared
        end;
        for slot = 0 to 2 do
          List.iter
            (fun p ->
              C.incr t.ctr ~tid Recovery_adopt;
              incr adopted;
              me.bags.(slot) <- p :: me.bags.(slot);
              me.bag_sizes.(slot) <- me.bag_sizes.(slot) + 1)
            pt.bags.(slot);
          pt.bags.(slot) <- [];
          pt.bag_sizes.(slot) <- 0
        done
      end
    done;
    for _ = 1 to 4 do
      try_advance t ~tid;
      let e = B.read t.backend t.global in
      me.last_seen <- e;
      collect t ~tid e
    done;
    let cached =
      match t.store with
      | Some fs -> Freestore.adopt fs ~tid ~dead:(dead t)
      | None -> 0
    in
    let c = custody t in
    let kept = Array.make (t.cfg.capacity + 1) false in
    List.iter (fun (_, h) -> kept.(h) <- true) c.Mm_intf.pending;
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

(* The custody checks, then the quiescence residue a thread crashed
   inside its bracket may legally leave behind: a still-active
   epoch pin. *)
let validate t =
  Mm_intf.check_custody ~arena:t.arena ~refcounted (custody t);
  Array.iteri
    (fun tid pt ->
      if B.read t.backend pt.active = 1 then
        failwith (Printf.sprintf "Epoch: thread %d still active" tid))
    t.threads

(* Sentinels are never retired, so plain reads of them are always
   safe; nothing to do. *)
let make_immortal _t ~tid:_ _p = ()
