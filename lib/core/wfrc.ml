[@@@wfrc.progress "wait_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The paper's scheme packaged behind the generic memory-manager
   signature, so the same data-structure code can run on it and on the
   baselines: every ReleaseRef hits the shared word at once, as in
   Figure 4. [cas_link] is Figure 6's CompareAndSwapLink. *)

module C = Atomics.Counters
module Value = Shmem.Value

(* Re-export the internals: [wfrc.ml] is the library's root module, so
   [Gc] and [Ann] are only reachable through it. *)
module Gc = Gc
module Ann = Ann

type t = Gc.t

let name = "wfrc"
let refcounted = true
let create cfg = Gc.create cfg
let config = Gc.config
let arena = Gc.arena
let counters = Gc.counters

(* Reference counting needs no per-operation bracket. *)
let enter_op _t ~tid:_ = ()
let exit_op _t ~tid:_ = ()

let alloc t ~tid = Gc.alloc t ~tid
let deref t ~tid link = Gc.deref t ~tid link
let release t ~tid p = if not (Value.is_null p) then Gc.release t ~tid p

let copy_ref t ~tid:_ p = if Value.is_null p then p else Gc.fix_ref t p 2

let cas_link t ~tid link ~old ~nw =
  let ctr = Gc.counters t in
  C.incr ctr ~tid Cas_attempt;
  (* The link's share on the new target must exist before the link
     can be observed pointing at it, so FixRef(+2) precedes the CAS
     and is undone on failure. *)
  if not (Value.is_null nw) then ignore (Gc.fix_ref t nw 2);
  if Shmem.Arena.cas (Gc.arena t) link ~old ~nw then begin
    (* Figure 6: a successful link update must help pending
       de-references of this link before the old target can lose its
       reference. *)
    Gc.help_deref t ~tid link;
    if not (Value.is_null old) then Gc.release t ~tid old;
    true
  end
  else begin
    if not (Value.is_null nw) then Gc.release t ~tid nw;
    C.incr ctr ~tid Cas_failure;
    false
  end

(* No-race contexts only (§3.2): re-point the link, moving its
   share. *)
let store_link t ~tid link p =
  let arena = Gc.arena t in
  let old = Shmem.Arena.read arena link in
  if not (Value.is_null p) then ignore (Gc.fix_ref t p 2);
  Shmem.Arena.write arena link p;
  if not (Value.is_null old) then Gc.release t ~tid old

(* Reclamation is driven entirely by reference counts. *)
let terminate _t ~tid:_ _p = ()

let validate = Gc.validate
let custody = Gc.custody

(* Crash recovery: dead-slot adoption (quiescent-survivors). *)
let declare_dead = Gc.declare_dead
let dead = Gc.dead
let recover = Gc.recover

(* Sentinels need no special handling under reference counting: the
   creator simply keeps the allocation reference forever. *)
let make_immortal _t ~tid:_ _p = ()
