(* The common memory-manager contract.

   This is the paper's §3.2 user model, factored as a signature so the
   same data-structure code runs on the wait-free scheme (lib/core),
   the Valois-style lock-free baseline, hazard pointers, epochs and
   the lock-based strawman. The operations mirror the paper's API:

     alloc      = AllocNode          deref  = DeRefLink
     release    = ReleaseRef         copy   = FixRef(node, +2)
     cas_link   = CompareAndSwapLink (Figure 6: CAS + HelpDeRef duty)
     store_link = direct write, only valid when the old value is known
                  to be null and no update races (§3.2)
     terminate  = "this node is now fully unlinked": a no-op for
                  reference counting, the retire point for HP/EBR.

   Pointers may carry deletion-mark bits (as in the skiplist of [18]);
   managers ignore marks and operate on the underlying node. *)

exception Out_of_memory
(* Raised by [alloc] when the single free-list is exhausted (paper
   fn. 4); the sharded store raises [Out_of_nodes] instead. *)

exception Out_of_nodes of { retries : int; waits : int }
(* Typed backpressure from the bounded-wait allocation path: the free
   store stayed empty through [retries] scan rounds and [waits]
   timed-out parks, a recovery attempt for declared-dead holders was
   made, and the caller should back off / shed load rather than block.
   Distinct from {!Out_of_memory}, which is the Sim/legacy hard
   exhaustion signal with unchanged semantics. *)

type config = {
  threads : int;      (* fixed number of participating threads (N) *)
  capacity : int;     (* number of nodes in the arena *)
  num_links : int;    (* link slots per node, released on reclaim (R3) *)
  num_data : int;     (* uninterpreted data words per node *)
  num_roots : int;    (* root link cells for the client structure *)
  backend : Atomics.Backend.t;
  (* shared-memory backend every layer below inherits: [Sim] for
     deterministic-scheduler/lincheck runs (instrumented cells, one
     scheduling point per primitive), [Native] for hook-free
     Domain-parallel runs, with the arena, the managers' hot globals
     and the free-store heads on raw out-of-heap word blocks driven by
     C stubs. *)
  shards : int;
  (* free-store stripes for the [Native] backend. 1 = the single
     legacy free-list; > 1 splits the node range into per-domain
     stripes with padded heads and per-stripe remote-free buffers.
     Ignored (must be 1) under [Sim], whose byte-for-byte behaviour
     the deterministic scheduler and lincheck depend on. *)
  batch : int;
  (* domain-local allocation-cache batch size [B]: caches hold up to
     [2*B] nodes and grab/return them [B] at a time. 1 = no cache
     (every alloc/free goes straight to a stripe, the legacy path). *)
  defer : int;
  (* per-domain rc-buffer capacity for the deferred-rc variant: each
     thread may park up to [defer] decrements locally before a
     buffer-full flush touches the shared rc words. 0 — the default —
     is fully eager: every ReleaseRef hits the shared word at once,
     the legacy wfrc/lfrc/lockrc behaviour. *)
}

let config ?(num_links = 0) ?(num_data = 0) ?(num_roots = 0)
    ?(backend = Atomics.Backend.Sim) ?(shards = 1) ?(batch = 1)
    ?(defer = 0) ~threads ~capacity () =
  if threads < 1 then invalid_arg "Mm_intf.config: threads";
  if capacity < 1 then invalid_arg "Mm_intf.config: capacity";
  if shards < 1 then invalid_arg "Mm_intf.config: shards";
  if batch < 1 then invalid_arg "Mm_intf.config: batch";
  if defer < 0 then invalid_arg "Mm_intf.config: defer";
  if shards > capacity then invalid_arg "Mm_intf.config: shards > capacity";
  if backend = Atomics.Backend.Sim && (shards > 1 || batch > 1) then
    invalid_arg "Mm_intf.config: sharding requires the Native backend";
  {
    threads;
    capacity;
    num_links;
    num_data;
    num_roots;
    backend;
    shards;
    batch;
    defer;
  }

(* Whether a config opts into the sharded free store (stripes +
   domain-local caches). [shards = 1, batch = 1] — the default — keeps
   every manager on its legacy free-list code path. *)
let sharded cfg =
  cfg.backend = Atomics.Backend.Native && (cfg.shards > 1 || cfg.batch > 1)

(* Node lifecycle events. Every manager reports the three custody
   transitions the reclamation-safety oracle (Analysis.Reclaim) needs:

     Alloc  — the node left allocator custody: [alloc] is handing it
              to the caller (emitted after the manager has claimed it);
     Free   — the node entered allocator custody: the scheme decided
              its count/grace period allows reuse (emitted before it
              is pushed on any free store);
     Retire — the client promised the node unreachable ([terminate]
              under HP/EBR): not yet reusable, but no longer part of
              the structure.

   The listener is a process-global hook in the style of
   [Atomics.Schedpoint]: a named no-op closure by default, so the cost
   with no listener installed is one indirect call per alloc/free —
   nothing on any per-word path — and installation is detectable by
   physical equality. Listeners are installed only by Sim-side
   analysis; emission is unconditional but carries no shared state, so
   Native multi-domain runs just pay the no-op call. *)
module Events = struct
  type lifecycle = Alloc | Free | Retire

  let lifecycle_name = function
    | Alloc -> "alloc"
    | Free -> "free"
    | Retire -> "retire"

  let no_listener ~tid:(_ : int) (_ : Shmem.Value.ptr) (_ : lifecycle) = ()
  let listener = ref no_listener
  let emit ~tid node lc = !listener ~tid node lc

  let with_listener f body =
    let saved = !listener in
    listener := f;
    Fun.protect ~finally:(fun () -> listener := saved) body

  let installed () = !listener != no_listener
end

(* Fault-tolerant accounting snapshot: the one quiescent walk of a
   scheme's allocator state. The post-run auditor (Harness.Audit)
   reads it, and so do [validate] (through [check_custody]) and
   [free_count] (through [count_free]). The [custody] accessor itself
   must never raise — structural damage is reported in [violations] —
   so it can be taken after a run in which threads crashed or were
   abandoned mid-operation and left announcements, hazard slots or
   half-pushed free-list nodes behind. *)
type custody = {
  free : bool array;
      (* indexed by node handle 1..capacity (slot 0 unused): the node
         is in a free store and immediately allocatable *)
  pending : (int * int) list;
      (* (tid, handle): in allocator custody but parked under that
         thread — annAlloc donations (wfrc), retired lists (hp),
         limbo bags (ebr). Reclaimable only through that thread, so a
         crashed owner strands them. *)
  pinned : (int * int) list;
      (* (tid, handle): protection published by that thread which
         blocks reclamation — hazard slots (hp), unretracted
         announcement answers (wfrc) *)
  deferred : (int * int) list;
      (* (tid, handle): a decrement parked in that thread's rc buffer
         (the deferred-rc variant). The shared count over-approximates
         the true count by 2 per entry until the owner flushes;
         duplicates are legal — one entry per outstanding decrement.
         Empty for eager schemes. *)
  violations : string list;
      (* structural damage found while walking (cycles, double
         custody); empty on a healthy snapshot *)
}

(* A custody walk's step: mark [p] in [free] and answer [true]; a
   node already marked is reported as [twice h] through [violation]
   and answers [false], which stops an [Arena.iter_chain] walk at the
   revisit. *)
let mark_free free ~violation ~twice p =
  let h = Shmem.Value.handle p in
  if free.(h) then begin
    violation (twice h);
    false
  end
  else begin
    free.(h) <- true;
    true
  end

(* Nodes in allocator custody: free, or parked under a thread. *)
let count_free c =
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 c.free
  + List.length c.pending

(* The strict reading of a [custody] snapshot shared by every scheme's
   [validate]: raise [Failure] on the first structural violation the
   walk reported, on a node parked twice or both free and parked, and
   — for reference-counting schemes — on a free node that does not
   carry the claimed count 1 or a node outside allocator custody with
   an odd (claimed) or negative count. Whatever a crashed thread can
   legally leave behind (published pins, a still-active epoch
   bracket) is not a custody fault; each scheme checks its own such
   residue after this. *)
let check_custody ~arena ~refcounted c =
  let module Arena = Shmem.Arena in
  let cap = Arena.capacity arena in
  (match c.violations with v :: _ -> failwith v | [] -> ());
  (* A sorted handle list, not a second capacity-sized array: pending
     entries are few, and the arenas checked can be large. *)
  let pending = List.sort compare (List.map snd c.pending) in
  ignore
    (List.fold_left
       (fun prev h ->
         if h < 1 || h > cap then
           failwith (Printf.sprintf "pending handle #%d out of range" h);
         if c.free.(h) then
           failwith (Printf.sprintf "node #%d both free and pending" h);
         if h = prev then failwith (Printf.sprintf "node #%d pending twice" h);
         h)
       0 pending);
  if refcounted then
    Arena.iter_nodes arena (fun p ->
        let h = Shmem.Value.handle p and r = Arena.read_mm_ref arena p in
        if c.free.(h) then begin
          if r <> 1 then
            failwith (Printf.sprintf "free node #%d has mm_ref=%d" h r)
        end
        else if (r < 0 || r land 1 = 1) && not (List.mem h pending) then
          failwith
            (Printf.sprintf "allocated node #%d has bad mm_ref=%d" h r))

(* What one recovery pass over the declared-dead set accomplished.
   [adopted] counts nodes moved from dead-thread custody (annAlloc
   donations, retired lists, limbo bags, allocation caches) back into
   allocator circulation; [released] counts surplus references dropped
   on dead threads' behalf (each may cascade and reclaim several
   nodes); [cleared] counts per-thread metadata slots wiped
   (announcement-pool rows, hazard slots, epoch pins, a held lock). *)
type recovery = { adopted : int; released : int; cleared : int }

let no_recovery = { adopted = 0; released = 0; cleared = 0 }

(* Shared recovery analysis for the reference-counting schemes
   (wfrc/lfrc/lockrc). At quiescence, with the survivors drained and
   the dead threads' published metadata already cleared, every
   remaining reference anomaly is attributable to a crashed thread
   (the same attribution argument as Harness.Audit):

     even count above the 2-per-link inbound share
                      — the dead thread still holds references it
                        acquired; drop them one release at a time, so
                        the scheme's own reclamation cascade runs;
     odd count, unreachable, no inbound
                      — crashed inside ReleaseRef/FreeNode after the
                        R2 claim (possibly with the own-cell park
                        inflation); finish the free it never completed;
     zero count, unreachable, no inbound
                      — crashed between the R1 decrement and the R2
                        claim; same revival.

   [next] re-analyses from scratch and returns one action, or [None]
   at the fixpoint; [run] drives actions to the fixpoint with a
   budget. One action per analysis round keeps the walk sound while
   release cascades rewrite the free set underneath it — recovery is
   rare and quiescent, so the O(anomalies * capacity) cost is fine.
   Revival is gated on zero inbound links: forcing the claimed count
   while another (crash-held) node still links to the victim would
   corrupt the count when that linker is later reclaimed, so such
   nodes wait for their linkers' cascades to resolve first. *)
module Rc_anomaly = struct
  module Value = Shmem.Value
  module Arena = Shmem.Arena

  type action =
    | Drop_excess of Value.ptr (* release one surplus reference *)
    | Revive of Value.ptr      (* finish a crashed thread's free *)

  let next ~arena ~free ~is_pending =
    let cap = Arena.capacity arena in
    let num_links = Shmem.Layout.num_links (Arena.layout arena) in
    let is_free h = h >= 1 && h <= cap && free.(h) in
    let skip h = is_free h || is_pending h in
    let reach = Array.make (cap + 1) false in
    let rec visit h =
      if h >= 1 && h <= cap && (not (is_free h)) && not reach.(h) then begin
        reach.(h) <- true;
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          let v = Arena.read_link arena p i in
          if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
        done
      end
    in
    let inbound = Array.make (cap + 1) 0 in
    let count v =
      if not (Value.is_null v) then begin
        let h = Value.handle (Value.unmark v) in
        if h >= 1 && h <= cap then inbound.(h) <- inbound.(h) + 2
      end
    in
    for r = 0 to Arena.num_roots arena - 1 do
      let v = Arena.read arena (Arena.root_addr arena r) in
      if not (Value.is_null v) then visit (Value.handle (Value.unmark v));
      count v
    done;
    for h = 1 to cap do
      if not (skip h) then
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          count (Arena.read_link arena p i)
        done
    done;
    let found = ref None in
    (try
       for h = 1 to cap do
         if not (skip h) then begin
           let r = Arena.read_mm_ref arena (Value.of_handle h) in
           if r land 1 = 0 && r > inbound.(h) then begin
             found := Some (Drop_excess (Value.of_handle h));
             raise Exit
           end
         end
       done;
       for h = 1 to cap do
         if (not (skip h)) && (not reach.(h)) && inbound.(h) = 0 then begin
           let r = Arena.read_mm_ref arena (Value.of_handle h) in
           if r land 1 = 1 || r = 0 then begin
             found := Some (Revive (Value.of_handle h));
             raise Exit
           end
         end
       done
     with Exit -> ());
    !found

  (* Drive to the fixpoint. [custody] must re-snapshot (the free set
     moves under the cascades); [release]/[revive] are the scheme's
     callbacks. Returns [(revived, releases)]. *)
  let run ~arena ~custody ~release ~revive =
    let cap = Arena.capacity arena in
    let budget = ref ((4 * cap) + 16) in
    let revived = ref 0 and releases = ref 0 in
    let continue_ = ref true in
    while !continue_ && !budget > 0 do
      decr budget;
      let (c : custody) = custody () in
      let pend = Array.make (cap + 1) false in
      List.iter
        (fun ((_ : int), h) -> if h >= 1 && h <= cap then pend.(h) <- true)
        c.pending;
      match next ~arena ~free:c.free ~is_pending:(fun h -> pend.(h)) with
      | None -> continue_ := false
      | Some (Drop_excess p) ->
          incr releases;
          release p
      | Some (Revive p) ->
          incr revived;
          revive p
    done;
    (!revived, !releases)
end

(* Orphan sweep for the non-refcounted schemes (hp/ebr). A thread
   that crashes between unlinking a node and retiring it leaves the
   node unreachable, in no custody record, and — with no reference
   count — carrying no anomaly that could flag it: normal operation
   can never reclaim it. At recovery time the premises are exactly
   the auditor's (quiescent instance, survivors drained, dead
   declared), so any node that is neither free, nor reachable from
   the roots, nor claimed by [keep] (retired lists, limbo bags,
   published pins) is unreclaimable garbage the adopter may free.
   [sweep] marks from the roots and hands each such node to
   [reclaim]; returns how many it freed. *)
module Orphan = struct
  module Value = Shmem.Value
  module Arena = Shmem.Arena

  let sweep ~arena ~free ~keep ~reclaim =
    let cap = Arena.capacity arena in
    let num_links = Shmem.Layout.num_links (Arena.layout arena) in
    let is_free h = h >= 1 && h <= cap && free.(h) in
    let reach = Array.make (cap + 1) false in
    let rec visit h =
      if h >= 1 && h <= cap && (not (is_free h)) && not reach.(h) then begin
        reach.(h) <- true;
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          let v = Arena.read_link arena p i in
          if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
        done
      end
    in
    for r = 0 to Arena.num_roots arena - 1 do
      let v = Arena.read arena (Arena.root_addr arena r) in
      if not (Value.is_null v) then visit (Value.handle (Value.unmark v))
    done;
    let n = ref 0 in
    for h = 1 to cap do
      if (not (is_free h)) && (not reach.(h)) && not (keep h) then begin
        incr n;
        reclaim (Value.of_handle h)
      end
    done;
    !n
end

let recovery_add a b =
  {
    adopted = a.adopted + b.adopted;
    released = a.released + b.released;
    cleared = a.cleared + b.cleared;
  }

module type S = sig
  type t

  val name : string
  (** Short scheme identifier used in reports ("wfrc", "lfrc", ...). *)

  val refcounted : bool
  (** Whether the scheme tracks per-node reference counts in the
      arena's [mm_ref] word with the shared two-units-per-reference
      convention (wfrc/lfrc/lockrc). The auditor only runs refcount
      conservation checks on such schemes. *)

  val create : config -> t
  (** Build the manager; all [capacity] nodes start free. *)

  val config : t -> config
  val arena : t -> Shmem.Arena.t
  val counters : t -> Atomics.Counters.t

  val enter_op : t -> tid:int -> unit
  (** Bracket opening a client data-structure operation. No-op for
      reference-counting schemes; EBR pins its epoch here. *)

  val exit_op : t -> tid:int -> unit
  (** Bracket closing an operation; HP clears slots, EBR unpins. *)

  val alloc : t -> tid:int -> Shmem.Value.ptr
  (** The paper's [AllocNode]: a fresh node holding one reference owned
      by the caller. When no node can be found it raises one of two
      exceptions, chosen by the free store the config selects:
      - {!Out_of_memory} on the single free-list ([Sim], or [Native]
        with [shards = 1, batch = 1]) once the scheme's bounded retry
        budget is spent (the paper's footnote 4);
      - {!Out_of_nodes} on the sharded [Native] store ({!sharded}),
        once its bounded retry/park rounds and an attempt to adopt
        declared-dead threads' caches came up empty — typed
        backpressure the caller may back off on and retry. *)

  val deref : t -> tid:int -> Shmem.Value.addr -> int
  (** The paper's [DeRefLink]: read link and acquire a guaranteed-safe
      reference to the node it points to. The result is the raw word
      (possibly null, possibly mark-tagged). *)

  val release : t -> tid:int -> Shmem.Value.ptr -> unit
  (** The paper's [ReleaseRef]; accepts null (no-op) and marked
      pointers (mark ignored). *)

  val copy_ref : t -> tid:int -> Shmem.Value.ptr -> Shmem.Value.ptr
  (** Duplicate a held reference (the paper's [FixRef(node, 2)]);
      returns its argument for convenience. Null is a no-op. *)

  val cas_link :
    t -> tid:int -> Shmem.Value.addr -> old:int -> nw:int -> bool
  (** The paper's [CompareAndSwapLink] (Figure 6): CAS the link and, on
      success, perform the scheme's post-update duty (for WFRC,
      [HelpDeRef]). The {e link's own} reference is managed internally:
      on success, reference-counting schemes transfer the link's share
      from [old] to [nw] (FixRef(+2) on [nw] before the CAS, release of
      [old]'s share after the help). The caller must hold its own
      reference on [nw] across the call and remains responsible only
      for the references it acquired itself via [alloc]/[deref]/
      [copy_ref]. *)

  val store_link : t -> tid:int -> Shmem.Value.addr -> Shmem.Value.ptr -> unit
  (** Plain link write, legal only when no concurrent update can race
      (private nodes, initialisation — §3.2). Manages the link's share
      like {!cas_link}: acquires a share on the new value and releases
      the share held through the previous value, so it can also be
      used to clear or re-point private link slots. *)

  val terminate : t -> tid:int -> Shmem.Value.ptr -> unit
  (** Client promise: the node is no longer reachable from the
      structure's links. Reference-counting schemes ignore this;
      HP/EBR use it as the retire point. *)

  val make_immortal : t -> tid:int -> Shmem.Value.ptr -> unit
  (** Declare a freshly allocated node a permanent sentinel: it will
      never be unlinked, released or terminated. Reference-counting
      schemes keep the allocation reference (no-op); hazard pointers
      drop the hazard slot (the node needs no protection since it is
      never retired). Call at structure-creation time only. *)

  val validate : t -> unit
  (** Quiescent invariant check (single-threaded): raises
      [Failure _] describing the first violated invariant —
      {!check_custody} over {!custody}, then the scheme's own
      quiescence residue (announcements, hazard slots, epoch
      brackets). *)

  val free_count : t -> int
  (** Quiescent count of nodes in allocator custody —
      {!count_free} over {!custody}: free, or parked under a thread
      (annAlloc donations, retired lists, limbo bags). For
      conservation tests. *)

  val custody : t -> custody
  (** Quiescent custody snapshot: the scheme's one walk of its
      allocator state, read by the auditor, {!validate} and
      {!free_count}. Never raises, even when crashed threads left the
      scheme's metadata non-quiescent (live announcements, published
      hazards, a held lock). *)

  val declare_dead : t -> tid:int -> unit
  (** Declare thread [tid] permanently dead: it will never run another
      operation. Idempotent. The declaration is consulted by
      {!recover} and by the bounded-wait allocation path (which may
      adopt dead threads' allocation caches under pressure). Like the
      auditor protocol, the caller guarantees the tid really has
      stopped — this is a harness/supervisor-level declaration, not
      something the scheme can detect on its own. *)

  val dead : t -> int list
  (** Sorted tids declared dead so far. *)

  val recover : t -> tid:int -> recovery
  (** Adopt the declared-dead threads' state from surviving thread
      [tid]: clear their published metadata (announcement-pool rows,
      hazard slots, epoch pins, a held lock), re-run the scheme's
      release protocol on references they still held, and drain their
      parked nodes (annAlloc donations, retired lists, limbo bags,
      per-thread caches) back into circulation. Quiescent-survivors
      protocol, same as {!custody}/{!validate}: call it after the
      surviving threads have drained, from a single thread. Idempotent
      — a second pass finds nothing left to adopt. *)
end

(* First-class packaging so the harness can treat schemes uniformly. *)

module type INSTANCE = sig
  module M : S

  val it : M.t
end

type instance = (module INSTANCE)

let instantiate (module M : S) cfg : instance =
  (module struct
    module M = M

    let it = M.create cfg
  end)

let name (module I : INSTANCE) = I.M.name
let arena (module I : INSTANCE) = I.M.arena I.it
let counters (module I : INSTANCE) = I.M.counters I.it
let conf (module I : INSTANCE) = I.M.config I.it
let enter_op (module I : INSTANCE) ~tid = I.M.enter_op I.it ~tid
let exit_op (module I : INSTANCE) ~tid = I.M.exit_op I.it ~tid
let alloc (module I : INSTANCE) ~tid = I.M.alloc I.it ~tid
let deref (module I : INSTANCE) ~tid addr = I.M.deref I.it ~tid addr
let release (module I : INSTANCE) ~tid p = I.M.release I.it ~tid p
let copy_ref (module I : INSTANCE) ~tid p = I.M.copy_ref I.it ~tid p

let cas_link (module I : INSTANCE) ~tid addr ~old ~nw =
  I.M.cas_link I.it ~tid addr ~old ~nw

let store_link (module I : INSTANCE) ~tid addr p =
  I.M.store_link I.it ~tid addr p

let terminate (module I : INSTANCE) ~tid p = I.M.terminate I.it ~tid p
let declare_dead (module I : INSTANCE) ~tid = I.M.declare_dead I.it ~tid
let dead (module I : INSTANCE) = I.M.dead I.it
let recover (module I : INSTANCE) ~tid = I.M.recover I.it ~tid
let make_immortal (module I : INSTANCE) ~tid p = I.M.make_immortal I.it ~tid p
let validate (module I : INSTANCE) = I.M.validate I.it
let free_count (module I : INSTANCE) = I.M.free_count I.it
let custody (module I : INSTANCE) = I.M.custody I.it
let refcounted (module I : INSTANCE) = I.M.refcounted
