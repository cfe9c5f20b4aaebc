[@@@wfrc.progress "blocking"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The blocking strawman of the paper's §1: reference counting with
   every memory-management operation serialised by one test-and-set
   spinlock. Correct and simple, but a preempted lock holder stalls
   every other thread — the priority-inversion/convoying behaviour
   real-time systems cannot accept, and the reason the paper insists
   on non-blocking schemes.

   The lock is a CAS spinlock on an atomic cell (not an OS mutex) so
   the scheme also runs under the deterministic scheduler, where the
   blocking shows up as unbounded victim step counts in E2.

   Reference-count conventions match [Wfrc]: two units per reference,
   free nodes carry mm_ref = 1. *)

module P = Atomics.Primitives
module B = Atomics.Backend
module C = Atomics.Counters
module Park = Atomics.Park
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena
module Freestore = Shmem.Freestore

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  lock : P.cell;
  park : Park.t; (* parking spot for lock waiters (Native only) *)
  free_head : P.cell;
  store : Freestore.t option; (* sharded Native free store (else legacy) *)
  dead : Mm_intf.Dead.t; (* tids declared permanently stopped *)
}

let name = "lockrc"
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
    (* every thread spins on the lock word; keep it and the free head
       on separate padded lines so the spin does not slow the holder *)
    lock = B.make_contended backend 0;
    park = Park.create ();
    free_head =
      B.make_contended backend
        (if store = None then Value.of_handle 1 else Value.null);
    store;
    dead = Mm_intf.Dead.create cfg.threads;
  }

let declare_dead t ~tid = Mm_intf.Dead.declare t.dead ~scheme:"Lockrc" ~tid
let dead t = Mm_intf.Dead.to_list t.dead

(* Release the lock and deliver a wake to any parked waiter. Under
   [Sim] nobody ever parks (the backoff arm is a scheduling point), so
   the wake is a few process-local atomic ops and no counter moves. *)
let unlock t ~tid =
  B.write t.backend t.lock 0;
  if Park.wake t.park then C.incr t.ctr ~tid Park_wake

let with_lock t ~tid f =
  (* Spin-then-park: once the exponential backoff saturates, the
     waiter parks on the scheme's one parking spot; every [unlock]
     wakes, which keeps the sleep sound (see Backoff.once_waiting). *)
  let b =
    Atomics.Backoff.create ~backend:t.backend ~park:t.park
      ~on_park:(fun () -> C.incr t.ctr ~tid Park_wait)
      ()
  in
  let rec acquire () =
    if not (B.cas t.backend t.lock ~old:0 ~nw:1) then begin
      Atomics.Backoff.once_waiting b ~ready:(fun () ->
          B.read t.backend t.lock = 0);
      acquire ()
    end
  in
  acquire ();
  C.incr t.ctr ~tid Lock_acquire;
  match f () with
  | v ->
      unlock t ~tid;
      v
  | exception e ->
      unlock t ~tid;
      raise e

let enter_op _t ~tid:_ = ()
let exit_op _t ~tid:_ = ()

(* All bodies below run under the lock, so plain sequential reasoning
   applies; the arena operations are atomic anyway. *)

let reclaim t ~tid node0 =
  let nl = Layout.num_links (Arena.layout t.arena) in
  let rec drop node =
    Arena.faa_mm_ref t.arena node (-2);
    if Arena.read_mm_ref t.arena node = 0 then begin
      Arena.write t.arena (Arena.mm_ref_addr t.arena node) 1;
      let held = ref [] in
      for i = 0 to nl - 1 do
        let v = Arena.read_link t.arena node i in
        Arena.write_link t.arena node i 0;
        if not (Value.is_null v) then held := Value.unmark v :: !held
      done;
      C.incr t.ctr ~tid Node_reclaimed;
      Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
      C.incr t.ctr ~tid Free;
      (match t.store with
      | Some fs -> Freestore.free fs ~tid node
      | None ->
          Arena.write_mm_next t.arena node (B.read t.backend t.free_head);
          B.write t.backend t.free_head node);
      List.iter drop !held
    end
  in
  drop node0

let release t ~tid p =
  if not (Value.is_null p) then begin
    C.incr t.ctr ~tid Release;
    with_lock t ~tid (fun () -> reclaim t ~tid (Value.unmark p))
  end

let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  with_lock t ~tid (fun () ->
      match t.store with
      | Some fs -> begin
          (* Every store operation runs under the one lock, so one
             full pass is conclusive: nobody can free concurrently.
             One more pass is owed after adopting declared-dead peers'
             caches; failing that, typed backpressure. *)
          let claim () =
            match Freestore.alloc fs ~tid with
            | Some node ->
                Arena.write t.arena (Arena.mm_ref_addr t.arena node) 2;
                Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
                Some node
            | None -> None
          in
          match claim () with
          | Some node -> node
          | None ->
              if Freestore.adopt fs ~tid ~dead:(dead t) > 0 then
                match claim () with
                | Some node -> node
                | None ->
                    C.incr t.ctr ~tid Oom_backpressure;
                    raise (Mm_intf.Out_of_nodes { retries = 2; waits = 0 })
              else begin
                C.incr t.ctr ~tid Oom_backpressure;
                raise (Mm_intf.Out_of_nodes { retries = 1; waits = 0 })
              end
        end
      | None ->
          let node = B.read t.backend t.free_head in
          if Value.is_null node then raise Mm_intf.Out_of_memory;
          B.write t.backend t.free_head (Arena.read_mm_next t.arena node);
          Arena.write t.arena (Arena.mm_ref_addr t.arena node) 2;
          Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
          node)

let deref t ~tid link =
  C.incr t.ctr ~tid Deref;
  with_lock t ~tid (fun () ->
      let w = Arena.read t.arena link in
      if not (Value.is_null w) then Arena.faa_mm_ref t.arena w 2;
      w)

let copy_ref t ~tid p =
  if not (Value.is_null p) then
    with_lock t ~tid (fun () -> Arena.faa_mm_ref t.arena p 2);
  p

let cas_link t ~tid link ~old ~nw =
  C.incr t.ctr ~tid Cas_attempt;
  with_lock t ~tid (fun () ->
      if Arena.read t.arena link = old then begin
        if not (Value.is_null nw) then Arena.faa_mm_ref t.arena nw 2;
        Arena.write t.arena link nw;
        if not (Value.is_null old) then reclaim t ~tid (Value.unmark old);
        true
      end
      else begin
        C.incr t.ctr ~tid Cas_failure;
        false
      end)

(* No-race contexts only (§3.2): re-point the link, moving its share. *)
let store_link t ~tid link p =
  with_lock t ~tid (fun () ->
      let old = Arena.read t.arena link in
      if not (Value.is_null p) then Arena.faa_mm_ref t.arena p 2;
      Arena.write t.arena link p;
      if not (Value.is_null old) then reclaim t ~tid (Value.unmark old))
let terminate _t ~tid:_ _p = ()

(* The one quiescent walk, read by the auditor, [validate] and
   [free_count]. A crashed thread may have died holding the lock; that
   is a liveness disaster for survivors but not custody of any node,
   so it surfaces as a violation string only. *)
let custody t =
  let cap = t.cfg.capacity in
  let free = Array.make (cap + 1) false in
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  if B.read t.backend t.lock <> 0 then violation "lock held at quiescence";
  let record =
    Mm_intf.mark_free free ~violation
      ~twice:(Printf.sprintf "node #%d on the free-list twice")
  in
  (match t.store with
  | Some fs ->
      (* Stripe chains, return buffers and caches are all [free]
         custody for the auditor's partition. *)
      Freestore.iter_free fs ~violation ~f:(fun p -> ignore (record p))
  | None ->
      Arena.iter_chain t.arena ~head:(B.read t.backend t.free_head)
        ~violation:(fun () -> violation "cycle in free-list")
        ~f:record);
  Mm_intf.
    {
      free;
      pending = [];
      pinned = [];
      violations = List.rev !violations;
    }

let free_count t = Mm_intf.count_free (custody t)

(* Crash recovery. Finish the free a crashed holder never completed:
   clear the links (dropping their targets' shares through [reclaim]),
   restore the free-node claim and push the node back to the pool. *)
let revive t ~tid node =
  with_lock t ~tid (fun () ->
      let nl = Layout.num_links (Arena.layout t.arena) in
      for i = 0 to nl - 1 do
        let v = Arena.read_link t.arena node i in
        Arena.write_link t.arena node i 0;
        if not (Value.is_null v) then reclaim t ~tid (Value.unmark v)
      done;
      Arena.write t.arena (Arena.mm_ref_addr t.arena node) 1;
      C.incr t.ctr ~tid Node_reclaimed;
      Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
      C.incr t.ctr ~tid Free;
      match t.store with
      | Some fs -> Freestore.free fs ~tid node
      | None ->
          Arena.write_mm_next t.arena node (B.read t.backend t.free_head);
          B.write t.backend t.free_head node)

let recover t ~tid =
  if not (Mm_intf.Dead.any t.dead) then Mm_intf.no_recovery
  else begin
    let cleared = ref 0 in
    (* At quiescence, with the survivors drained, a non-zero lock word
       can only be a dead holder's. Break it and wake any parked
       waiter — this is the step that turns the scheme's liveness
       disaster back into mere lost work. *)
    if B.read t.backend t.lock <> 0 then begin
      B.write t.backend t.lock 0;
      if Park.wake t.park then C.incr t.ctr ~tid Park_wake;
      incr cleared
    end;
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
    { Mm_intf.adopted = revived + cached; released = drops; cleared = !cleared }
  end

(* A held lock is already a custody violation: nothing is left for a
   scheme-specific residue check. *)
let validate t =
  Mm_intf.check_custody ~arena:t.arena ~refcounted (custody t)

(* Sentinels need no special handling under reference counting: the
   creator simply keeps the allocation reference forever. *)
let make_immortal _t ~tid:_ _p = ()
