(* Post-run invariant auditor.

   Takes a quiescent memory-manager instance — possibly one in which
   some threads crashed mid-operation under a [Sched.Fault] plan — and
   partitions every node in the arena into six classes:

     Free          in the scheme's free store, allocatable now
     Reachable     live: reachable from the arena's root links
     Pending_live  parked under a surviving thread (retired list,
                   limbo bag): reclaimable by that thread later
     Crash_held    stranded by a crashed thread: pinned by its
                   published protections, parked under it, or kept
                   alive only by references it still holds
     Deferred      kept above zero only by decrements still sitting in
                   a surviving thread's rc buffer (DESIGN.md §6.3):
                   reclaimable at that thread's next flush. Closed
                   transitively over link slots, like [Crash_held]:
                   the flush that claims the buffered node cascades
                   through everything it still links to, so a dead
                   chain hanging off one parked decrement is
                   flush-reclaimable end to end, not leaked.
     Leaked        none of the above — unreachable, unattributable,
                   and irrecoverable: an audit failure

   For reference-counting schemes it additionally checks refcount
   conservation: every allocated node's [mm_ref] must be even and at
   least the 2-units-per-reference contribution of the links and roots
   that point at it (a deficit means a premature free is possible);
   free/donated nodes must carry the odd claimed-by-allocator value.

   Crash attribution works without any cooperation from the crashed
   thread, exactly as an external observer of the paper's
   stopped-process model: the seeds are the scheme's own custody
   records (pinned/pending entries owned by a crashed tid) plus, for
   refcounted schemes, unreachable nodes whose count exceeds its
   link-inbound contribution — a reference surplus only a crashed
   thread can still hold once the survivors have drained. Seeds are
   closed transitively over link slots, since a node held by a crashed
   thread keeps everything it links to alive too.

   The paper's Theorem 1 bounds what a crashed thread can strand: at
   most N+1 references per thread of its own plus the announcements it
   never retracted — an O(N^2)-per-crash envelope overall. [run]'s
   [loss_bound] defaults to |crashed| * N * (N+1) nodes, a deliberately
   loose reading of that envelope; E12 reports the measured
   [crash_held] against it. *)

module Value = Shmem.Value
module Arena = Shmem.Arena
module Mm = Mm_intf

type report = {
  scheme : string;
  capacity : int;
  threads : int;
  crashed : int list;
  free : int;
  reachable : int;
  pending_live : int;
  crash_held : int;
  deferred : int;
  leaked : int;
  lost : int;          (* capacity - free - reachable *)
  loss_bound : int;    (* 0 when no thread crashed *)
  recovered : int;     (* nodes returned to free by a recovery pass *)
  violations : string list;
}

let ok r =
  r.violations = [] && r.leaked = 0 && r.crash_held <= r.loss_bound

let to_string r =
  Printf.sprintf
    "audit[%s] cap=%d threads=%d crashed=[%s] free=%d reachable=%d \
     pending=%d crash_held=%d deferred=%d leaked=%d lost=%d bound=%d \
     recovered=%d violations=[%s] %s"
    r.scheme r.capacity r.threads
    (String.concat "," (List.map string_of_int r.crashed))
    r.free r.reachable r.pending_live r.crash_held r.deferred r.leaked
    r.lost r.loss_bound r.recovered
    (String.concat "; " r.violations)
    (if ok r then "OK" else "FAIL")

let check r = if not (ok r) then failwith ("Audit: " ^ to_string r)

let run ?(crashed = []) ?loss_bound (inst : Mm.instance) =
  let cfg = Mm.conf inst in
  let arena = Mm.arena inst in
  let cap = cfg.Mm.capacity in
  let threads = cfg.Mm.threads in
  let crashed = List.sort_uniq compare crashed in
  List.iter
    (fun tid ->
      if tid < 0 || tid >= threads then invalid_arg "Audit.run: crashed tid")
    crashed;
  let is_crashed tid = List.mem tid crashed in
  let c = Mm.custody inst in
  let violations = ref (List.rev c.Mm.violations) in
  let violation fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  if Array.length c.Mm.free <> cap + 1 then
    violation "custody free array has length %d, expected %d"
      (Array.length c.Mm.free) (cap + 1);
  let free h = h >= 1 && h <= cap && c.Mm.free.(h) in
  (* Pins may legally repeat (two hazard slots can protect one node);
     custody entries may not. *)
  let pending = List.sort compare c.Mm.pending in
  let pinned = List.sort_uniq compare c.Mm.pinned in
  (* Custody owner per node; a node parked twice — under two threads,
     or twice under one — is structural damage. *)
  let pending_owner = Array.make (cap + 1) (-1) in
  List.iter
    (fun (tid, h) ->
      if h < 1 || h > cap then violation "pending handle #%d out of range" h
      else if pending_owner.(h) = tid then
        violation "node #%d in custody of thread %d twice" h tid
      else if pending_owner.(h) >= 0 then
        violation "node #%d in custody of threads %d and %d" h
          pending_owner.(h) tid
      else pending_owner.(h) <- tid)
    pending;
  let is_pending h = pending_owner.(h) >= 0 in
  (* Decrements parked in per-thread rc buffers (DESIGN.md §6.3). Each
     entry keeps the node's shared count inflated by exactly 2 units
     until the owning thread flushes; duplicates are legal (the same
     node released twice from one thread before a flush). *)
  let deferred_count = Array.make (cap + 1) 0 in
  let deferred_crashed = Array.make (cap + 1) false in
  List.iter
    (fun (tid, h) ->
      if h < 1 || h > cap then violation "deferred handle #%d out of range" h
      else begin
        deferred_count.(h) <- deferred_count.(h) + 1;
        if is_crashed tid then deferred_crashed.(h) <- true
      end)
    c.Mm.deferred;
  (* --- Reachability from the root links ----------------------------- *)
  let reach = Array.make (cap + 1) false in
  let num_links = Shmem.Layout.num_links (Arena.layout arena) in
  let uaf_reported = Array.make (cap + 1) false in
  let rec visit h =
    if h >= 1 && h <= cap then
      if free h then begin
        (* use-after-free: the structure still links to a node the
           allocator considers free *)
        if not uaf_reported.(h) then begin
          uaf_reported.(h) <- true;
          violation "free node #%d reachable from the structure" h
        end
      end
      else if not reach.(h) then begin
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
  List.iter
    (fun (tid, h) ->
      if h >= 1 && h <= cap && reach.(h) then
        violation "node #%d retired by thread %d but still reachable" h tid)
    pending;
  (* Survivors are fully drained by audit time, so any surviving pin is
     a protocol violation (unretracted announcement, leaked hazard). *)
  List.iter
    (fun (tid, h) ->
      if not (is_crashed tid) then
        violation "live thread %d still pins node #%d" tid h)
    pinned;
  (* --- Refcount conservation (RC schemes only) ---------------------- *)
  let refcounted = Mm.refcounted inst in
  (* For each allocated node: is its count odd (claimed), and how far
     does it exceed the 2-per-link inbound contribution? A crashed
     thread can leave an unreachable node in any of three states an
     external observer must attribute to it rather than flag:
       odd count        crashed inside ReleaseRef/FreeNode after the
                        R2 claim (or holding the F3 donation inflation)
       positive excess  still holding references it acquired
       zero count,      crashed between the R1 decrement and the R2
       zero inbound     claim — fully released, never reclaimed
     Everything else odd/deficient is a conservation violation. *)
  let excess = Array.make (cap + 1) 0 in
  let odd = Array.make (cap + 1) false in
  let zombie = Array.make (cap + 1) false in
  if refcounted then begin
    let inbound = Array.make (cap + 1) 0 in
    let count v =
      if not (Value.is_null v) then begin
        let h = Value.handle (Value.unmark v) in
        if h >= 1 && h <= cap then inbound.(h) <- inbound.(h) + 2
      end
    in
    for r = 0 to Arena.num_roots arena - 1 do
      count (Arena.read arena (Arena.root_addr arena r))
    done;
    for h = 1 to cap do
      (* free/donated nodes had their links cleared on reclamation *)
      if not (free h || is_pending h) then
        let p = Value.of_handle h in
        for i = 0 to num_links - 1 do
          count (Arena.read_link arena p i)
        done
    done;
    for h = 1 to cap do
      let r = Arena.read_mm_ref arena (Value.of_handle h) in
      if free h || is_pending h then begin
        if r land 1 = 0 then
          violation "claimed node #%d has even mm_ref=%d" h r
      end
      else begin
        (* A buffered decrement keeps the shared count inflated by 2
           units it no longer deserves; discount them before the
           conservation checks so a node awaiting a flush is neither a
           surplus nor masks a genuine deficit. *)
        let r = r - (2 * deferred_count.(h)) in
        if r < 0 then
          violation
            "node #%d mm_ref=%d below its %d buffered decrement(s)" h
            (r + (2 * deferred_count.(h)))
            deferred_count.(h);
        excess.(h) <- r - inbound.(h);
        odd.(h) <- r land 1 = 1;
        zombie.(h) <- r = 0 && inbound.(h) = 0;
        let attributable = crashed <> [] && not reach.(h) in
        if odd.(h) then begin
          if not attributable then
            violation "allocated node #%d has odd mm_ref=%d" h r
        end
        else if excess.(h) < 0 then
          violation
            "node #%d mm_ref=%d below its inbound share %d (premature free \
             possible)"
            h r inbound.(h)
      end
    done
  end;
  (* --- Crash attribution -------------------------------------------- *)
  let crash_held = Array.make (cap + 1) false in
  if crashed <> [] then begin
    let seeds = ref [] in
    let seed h =
      if
        h >= 1 && h <= cap
        && (not (free h))
        && (not reach.(h))
        && not crash_held.(h)
      then begin
        crash_held.(h) <- true;
        seeds := h :: !seeds
      end
    in
    List.iter (fun (tid, h) -> if is_crashed tid then seed h) pinned;
    List.iter (fun (tid, h) -> if is_crashed tid then seed h) pending;
    (* Decrements stranded in a crashed thread's rc buffer hold their
       nodes exactly like references it still owns. *)
    for h = 1 to cap do
      if deferred_crashed.(h) then seed h
    done;
    if refcounted then
      for h = 1 to cap do
        if
          (not (free h))
          && (not (is_pending h))
          && (excess.(h) > 0 || odd.(h) || zombie.(h))
        then seed h
      done;
    (* Everything a stranded node links to is stranded with it. *)
    let rec close = function
      | [] -> ()
      | h :: rest ->
          let next = ref rest in
          if not (is_pending h) then begin
            let p = Value.of_handle h in
            for i = 0 to num_links - 1 do
              let v = Arena.read_link arena p i in
              if not (Value.is_null v) then begin
                let h' = Value.handle (Value.unmark v) in
                if
                  h' >= 1 && h' <= cap
                  && (not (free h'))
                  && (not reach.(h'))
                  && not crash_held.(h')
                then begin
                  crash_held.(h') <- true;
                  next := h' :: !next
                end
              end
            done
          end;
          close !next
    in
    close !seeds
  end;
  (* --- Deferred closure ---------------------------------------------- *)
  (* A node whose reclamation waits on a buffered decrement keeps its
     whole link-successor region waiting with it: the flush that
     finally claims it cascades through every link it still holds
     (R3), so those successors are flush-reclaimable too, not leaked.
     Close the class over link slots exactly like the crash closure
     above (crash attribution wins: a node already stranded by a
     crashed thread stays [Crash_held]). *)
  let deferred_held = Array.make (cap + 1) false in
  if c.Mm.deferred <> [] then begin
    let seeds = ref [] in
    for h = 1 to cap do
      if
        deferred_count.(h) > 0
        && (not (free h))
        && (not reach.(h))
        && not crash_held.(h)
      then begin
        deferred_held.(h) <- true;
        seeds := h :: !seeds
      end
    done;
    let rec close = function
      | [] -> ()
      | h :: rest ->
          let next = ref rest in
          if not (is_pending h) then begin
            let p = Value.of_handle h in
            for i = 0 to num_links - 1 do
              let v = Arena.read_link arena p i in
              if not (Value.is_null v) then begin
                let h' = Value.handle (Value.unmark v) in
                if
                  h' >= 1 && h' <= cap
                  && (not (free h'))
                  && (not reach.(h'))
                  && (not crash_held.(h'))
                  && not deferred_held.(h')
                then begin
                  deferred_held.(h') <- true;
                  next := h' :: !next
                end
              end
            done
          end;
          close !next
    in
    close !seeds
  end;
  (* --- Partition ----------------------------------------------------- *)
  let n_free = ref 0
  and n_reach = ref 0
  and n_pending = ref 0
  and n_crash = ref 0
  and n_deferred = ref 0
  and n_leaked = ref 0 in
  for h = 1 to cap do
    if free h then incr n_free
    else if reach.(h) then incr n_reach
    else if crash_held.(h) then incr n_crash
    else if is_pending h then incr n_pending
    else if deferred_held.(h) then incr n_deferred
    else incr n_leaked
  done;
  let loss_bound =
    match loss_bound with
    | Some b -> b
    | None -> List.length crashed * threads * (threads + 1)
  in
  {
    scheme = Mm.name inst;
    capacity = cap;
    threads;
    crashed;
    free = !n_free;
    reachable = !n_reach;
    pending_live = !n_pending;
    crash_held = !n_crash;
    deferred = !n_deferred;
    leaked = !n_leaked;
    lost = cap - !n_free - !n_reach;
    loss_bound;
    recovered = 0;
    violations = List.rev !violations;
  }

(* Tighter, empirically-calibrated per-scheme crash-loss envelopes,
   measured over the seeded E12 grid and pinned as regressions in
   test/t_fault.ml. The default Theorem-1 reading
   (|crashed| * N * (N+1)) stays [run]'s contract; these are opt-in
   via [run ~loss_bound:...]. [None] for schemes whose loss is
   unbounded by design (ebr: the crashed thread pins the epoch and
   the stranding grows with survivor work). *)
let envelope ?(defer = 0) ~scheme ~threads ~crashes () =
  let per_crash =
    match scheme with
    | "wfrc" -> Some ((2 * threads) - 1)
    (* eager wfrc envelope plus up to [defer] decrements stranded in
       the crashed thread's rc buffer, each holding one node *)
    | "wfrc_deferred" -> Some ((2 * threads) - 1 + defer)
    | "lfrc" | "lockrc" -> Some (2 * threads)
    | "hp" -> Some (threads * (threads + 1))
    | _ -> None
  in
  Option.map (fun b -> crashes * b) per_crash

(* ---- Empirical wait-freedom bound recorder -------------------------- *)

(* Wraps individual operations run under the deterministic engine and
   records, per operation, the window of global steps it spanned and
   the number of the owning thread's *own* scheduling steps it took —
   the unit of the paper's wait-freedom bounds. E13 uses this to show
   that a survivor's operations stay within a constant own-step bound
   even while other threads are stalled, while the lock-based scheme's
   do not. *)
module Steps = struct
  type op = { g_start : int; g_stop : int; own : int }

  type t = { per_tid : op list ref array }

  let create ~threads =
    if threads < 1 then invalid_arg "Audit.Steps.create";
    { per_tid = Array.init threads (fun _ -> ref []) }

  let around t ~tid f =
    let g0 = Sched.Engine.now () and s0 = Sched.Engine.steps_of tid in
    let record () =
      let g1 = Sched.Engine.now () and s1 = Sched.Engine.steps_of tid in
      t.per_tid.(tid) :=
        { g_start = g0; g_stop = g1; own = s1 - s0 } :: !(t.per_tid.(tid))
    in
    match f () with
    | v ->
        record ();
        v
    | exception e ->
        record ();
        raise e

  let ops t ~tid =
    List.rev_map (fun o -> (o.g_start, o.g_stop, o.own)) !(t.per_tid.(tid))

  let max_own_steps ?window t ~tids =
    let overlaps o =
      match window with
      | None -> true
      | Some (lo, hi) -> o.g_stop > lo && o.g_start < hi
    in
    List.fold_left
      (fun acc tid ->
        List.fold_left
          (fun acc o -> if overlaps o then max acc o.own else acc)
          acc
          !(t.per_tid.(tid)))
      0 tids
end
