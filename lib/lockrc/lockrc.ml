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
module Pool = Shmem.Pool

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  lock : P.cell;
  park : Park.t; (* parking spot for lock waiters (Native only) *)
  pool : Pool.t;
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
    Arena.write arena (Arena.mm_ref_addr arena (Value.of_handle h)) 1
  done;
  let ctr = C.create ~backend ~threads:cfg.threads () in
  {
    cfg;
    backend;
    arena;
    ctr;
    (* every thread spins on the lock word; keep it and the pool's
       head on separate padded lines so the spin does not slow the
       holder *)
    lock = B.make_contended backend 0;
    park = Park.create ();
    pool = Mm_intf.pool cfg ~arena ~counters:ctr;
    dead = Mm_intf.Dead.create cfg.threads;
  }

let declare_dead t ~tid = Mm_intf.Dead.declare t.dead ~scheme:"Lockrc" ~tid

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

let pool_push t ~tid node =
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  Pool.free t.pool ~tid node

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
      pool_push t ~tid node;
      List.iter drop !held
    end
  in
  drop node0

let release t ~tid p =
  if not (Value.is_null p) then begin
    C.incr t.ctr ~tid Release;
    with_lock t ~tid (fun () -> reclaim t ~tid (Value.unmark p))
  end

(* Every pool operation runs under the one lock, so a pass is
   conclusive: nobody can free concurrently, and there is nothing to
   park for. *)
let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  with_lock t ~tid (fun () ->
      let node = Pool.claim t.pool ~tid ~dead:t.dead in
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

(* The one quiescent walk, read by the auditor and [validate]. A
   crashed thread may have died holding the lock; that
   is a liveness disaster for survivors but not custody of any node,
   so it surfaces as a violation string only. *)
let custody t =
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  if B.read t.backend t.lock <> 0 then violation "lock held at quiescence";
  let free = Pool.walk t.pool ~violation in
  Mm_intf.
    {
      free;
      pending = [];
      pinned = [];
      violations = List.rev !violations;
    }

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
      pool_push t ~tid node)

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
    let cached = Pool.adopt t.pool ~tid ~dead:t.dead in
    { Mm_intf.adopted = revived + cached; released = drops; cleared = !cleared }
  end

(* A held lock is already a custody violation: nothing is left for a
   scheme-specific residue check. *)
let validate t =
  Mm_intf.check_custody ~arena:t.arena ~refcounted (custody t)

(* Sentinels need no special handling under reference counting: the
   creator simply keeps the allocation reference forever. *)
let make_immortal _t ~tid:_ _p = ()
