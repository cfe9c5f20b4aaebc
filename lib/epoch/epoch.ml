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
module Pool = Shmem.Pool

(* The record, [bags] and [bag_sizes] are owner-written on every
   retire and epoch change: all three are {!Atomics.Backend.padded}. *)
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
  pool : Pool.t;
  threads : per_thread array;
  advance_every : int;
  dead : Mm_intf.Dead.t; (* tids declared permanently stopped *)
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
  let ctr = C.create ~backend ~threads:cfg.threads () in
  {
    cfg;
    backend;
    arena;
    ctr;
    global = B.make_contended backend 0;
    pool = Mm_intf.pool cfg ~arena ~counters:ctr;
    threads =
      Array.init cfg.threads (fun _ ->
          B.padded
            {
              (* owner-written, advance-scanner-read: padded per thread *)
              active = B.make_contended backend 0;
              epoch = B.make_contended backend 0;
              bags = B.padded [| []; []; [] |];
              bag_sizes = B.padded (Array.make 3 0);
              last_seen = 0;
              ops = 0;
            });
    advance_every = 4;
    dead = Mm_intf.Dead.create cfg.threads;
  }

let declare_dead t ~tid = Mm_intf.Dead.declare t.dead ~scheme:"Epoch" ~tid
let dead t = Mm_intf.Dead.to_list t.dead

let pool_push t ~tid node =
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  Pool.free t.pool ~tid node

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

(* Under pool pressure, advance the epoch and drain our own bags up to
   6 times before giving up. If another thread is stalled inside an
   epoch this cannot make progress — EBR's reclamation is blocking,
   which is part of the comparison. We may hold epoch-protected
   references ourselves, so we must not republish our epoch here: at
   most one advance can happen while we are inside the bracket,
   draining one bag generation, and collected nodes land in our own
   cache, where the next pass sees them. *)
let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  let relief empty =
    empty <= 6
    && begin
         try_advance t ~tid;
         let e = B.read t.backend t.global in
         let pt = t.threads.(tid) in
         if e <> pt.last_seen then begin
           pt.last_seen <- e;
           collect t ~tid e
         end;
         true
       end
  in
  let node = Pool.claim t.pool ~tid ~relief ~dead:t.dead in
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
  node

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

(* The one quiescent walk, read by the auditor and [validate]. Limbo
   bags are [pending] under their owner: only that thread's [collect]
   empties them, so a crashed owner strands every bag generation —
   and worse, if it crashed inside the bracket ([active] still 1) the
   global epoch can never advance again and {e every} thread's bags
   jam. That unbounded loss is the E12
   comparison point. Nothing is [pinned] node-wise: epochs protect
   eras, not individual nodes. *)
let custody t =
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  let free = Pool.walk t.pool ~violation in
  let pending = ref [] in
  Array.iteri
    (fun tid pt ->
      for slot = 0 to 2 do
        List.iter
          (fun p ->
            let h = Value.handle p in
            if free.(h) then
              violation (Printf.sprintf "bagged node #%d also in the pool" h)
            else pending := (tid, h) :: !pending)
          pt.bags.(slot)
      done)
    t.threads;
  Mm_intf.
    {
      free;
      pending = !pending;
      pinned = [];
      violations = List.rev !violations;
    }

let scratch_blocks t =
  List.concat
    (List.mapi
       (fun tid pt ->
         [
           B.owned ~owner:tid "per_thread" ~used:6 pt;
           B.owned ~owner:tid "bags" ~used:3 pt.bags;
           B.owned ~owner:tid "bag_sizes" ~used:3 pt.bag_sizes;
         ])
       (Array.to_list t.threads))
  @ Pool.scratch_blocks t.pool

(* Crash recovery: un-jam the epoch (a thread that crashed inside the
   bracket blocks [try_advance] forever), adopt the dead threads' bag
   generations into the survivor's bags, then advance+collect a few
   rounds — each round frees one of the three slots, so all adopted
   limbo drains back to the pool. Finally sweep orphans: a victim
   that crashed between unlinking a node and bagging it strands the
   node outside every bag, where only a root-marking pass can find
   it. *)
let recover t ~tid =
  if not (Mm_intf.Dead.any t.dead) then Mm_intf.no_recovery
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
    let cached = Pool.adopt t.pool ~tid ~dead:t.dead in
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
