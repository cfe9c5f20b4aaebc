[@@@wfrc.progress "lock_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The "default lock-free memory management scheme" the paper compares
   against (§5): reference counting in the style of Valois [19] as
   corrected by Michael & Scott [14].

   - [deref] is the unbounded-retry loop the paper's §3 describes:
     read the link, FAA the target's count, re-read the link; if it
     changed, undo and try again. Lock-free, not wait-free — a
     concurrent updater can force any number of retries (experiment
     E2 measures exactly this against the paper's bounded scheme).
   - The free pool ([Shmem.Pool]) is a single Treiber stack whose
     head carries a modification stamp (tagged pointer), the classic
     ABA fix; the pop is additionally protected by the reference
     count, as in §3.1.

   Reference-count conventions are identical to [Wfrc]: two units per
   reference, odd value = claimed by the allocator. *)

module B = Atomics.Backend
module C = Atomics.Counters
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena
module Pool = Shmem.Pool

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ctr : C.t;
  pool : Pool.t;
  work : int array array; (* per-thread release work stacks *)
  scratch : int array array;
      (* per-thread link-collect buffers, {!Atomics.Backend.padded} *)
  dead : Mm_intf.Dead.t; (* tids declared permanently stopped *)
  guard : Pool.guard; (* the §3.1 pin on the pool's single list *)
}

let name = "lfrc"
let refcounted = true
let config t = t.cfg
let arena t = t.arena
let counters t = t.ctr

let declare_dead t ~tid = Mm_intf.Dead.declare t.dead ~scheme:"Lfrc" ~tid

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

(* The node was just claimed (mm_ref = 1) and keeps that count
   throughout its stay in the pool. *)
and free_node t ~tid node =
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  Pool.free t.pool ~tid node

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
  let pool = Mm_intf.pool cfg ~arena ~counters:ctr in
  let work =
    Array.init cfg.threads (fun _ ->
        Array.make (max 64 (4 * (cfg.num_links + 1))) 0)
  in
  let scratch =
    Array.init cfg.threads (fun _ ->
        B.padded (Array.make (max 1 cfg.num_links) 0))
  in
  let dead = Mm_intf.Dead.create cfg.threads in
  (* Raise the count before the pool reads [mm_next], so the node
     cannot be reclaimed (and thus re-pushed with a different next);
     a lost CAS drops the pin through the full release. *)
  let rec t =
    {
      cfg;
      backend;
      arena;
      ctr;
      pool;
      work;
      scratch;
      dead;
      guard =
        {
          Pool.pin = (fun p -> Arena.faa_mm_ref arena p 2);
          unpin = (fun ~tid p -> release t ~tid p);
        };
    }
  in
  t

(* A pooled node carries mm_ref = 1. On the single list it comes out
   still pinned (+2), so the claim drops 1 of the pin; a cached node
   is private but may still take a stale Valois deref's transient
   +2/-2 pair, so FAA (not a store) it to 2. *)
let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  let node =
    Pool.claim t.pool ~tid ~guard:t.guard ~park:true ~dead:t.dead
  in
  Arena.faa_mm_ref t.arena node (if Pool.sharded t.pool then 1 else -1);
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
  node

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

(* The one quiescent walk, read by the auditor and [validate]: damage
   goes to [violations] instead of raising. The scheme has no
   per-thread custody (no retired lists, no announcements). *)
let custody t =
  let violations = ref [] in
  let violation s = violations := s :: !violations in
  let free = Pool.walk t.pool ~violation in
  Mm_intf.
    {
      free;
      pending = [];
      pinned = [];
      violations = List.rev !violations;
    }

let scratch_blocks t =
  List.init t.cfg.threads (fun tid ->
      B.owned ~owner:tid "scratch" ~used:(max 1 t.cfg.num_links)
        t.scratch.(tid))
  @ Pool.scratch_blocks t.pool

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
  if not (Mm_intf.Dead.any t.dead) then Mm_intf.no_recovery
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
    let cached = Pool.adopt t.pool ~tid ~dead:t.dead in
    { Mm_intf.adopted = revived + cached; released = drops; cleared = 0 }
  end

let validate t =
  Mm_intf.check_custody ~arena:t.arena ~refcounted (custody t)

(* Sentinels need no special handling under reference counting: the
   creator simply keeps the allocation reference forever. *)
let make_immortal _t ~tid:_ _p = ()
