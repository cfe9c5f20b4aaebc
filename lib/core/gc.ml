[@@@wfrc.progress "wait_free"] (* static progress contract; checked by `wfrc_lint --pass progress` *)

(* The paper's algorithms, lines quoted by label:

   - Figure 4: DeRefLink (D1–D10), ReleaseRef (R1–R4), HelpDeRef
     (H1–H8), over the announcement pool in [Ann].
   - Figure 5: AllocNode (A1–A18), FreeNode (F1–F10), FixRef, over
     [2N] free-lists, [currentFreeList], [helpCurrent] and
     [annAlloc[N]].

   ReleaseRef, FreeNode and AllocNode are mutually entangled (R4 calls
   FreeNode, A18 calls ReleaseRef), so they live in one module; the
   user-facing assembly conforming to [Mm_intf.S] is in [Wfrc].

   Three deliberate deviations from the pseudocode, documented in
   DESIGN.md §6.0:

   - FreeNode's F1–F3 (advance [helpCurrent], donate the node to
     [annAlloc[helpCurrent]]) become an own-cell hand-off: the freeing
     thread parks the node in its own [annAlloc[tid]] cell when that
     cell is empty, and its next A4 takes it back. Round-robin helping
     stays where Lemma 9 needs it — A10 successes donating via
     A11–A14 — so [helpCurrent] is written only by A14/A16, and churn
     no longer moves the counter and a peer's cell between cores on
     every alloc/free pair.
   - On that hand-off, FreeNode inflates the node's reference count by
     2 before the CAS into [annAlloc] (and deflates on failure).
     Without this, a parked node reaches A4 with mm_ref = 1, and A4's
     FixRef(-1) would hand the user a node with zero references, while
     the A12 path hands out mm_ref = 2. The inflation makes both paths
     deliver mm_ref = 3, so A4 is uniform — this matches the semantics
     (1) of Definition 1 and the reference-count reasoning in Lemma 4,
     which only considers the A12 path. The node is exclusively owned
     at that point (it was just claimed by R2's CAS), so the transient
     inflation is unobservable.
   - DeRefLink's D2 skips its store when [annIndex[tid]] already holds
     the slot D1 chose. The thread is the word's only writer, so every
     H2 read returns what it would have returned; the store would
     only invalidate the line the helpers scan.

   Hot-path discipline: the operations below allocate nothing on the
   OCaml heap — the scheme's globals live on one {!Atomics.Hot}
   vector, the R3 recursion runs on a reusable per-thread int-array
   stack, and AllocNode's loop state travels as immediate arguments.
   Per-op allocation is what used to drag multi-domain Native runs
   into minor-GC stop-the-world barriers; the word-for-word order of
   shared-memory operations is unchanged, so Sim schedules (and the
   seeded experiment outputs) are bit-identical to the list-based
   code. *)

module B = Atomics.Backend
module C = Atomics.Counters
module Hot = Atomics.Hot
module Words = Atomics.Words
module Value = Shmem.Value
module Layout = Shmem.Layout
module Arena = Shmem.Arena

(* Domain-local allocation cache for the sharded Native configuration
   (Mm_intf.sharded): the paper's 2N free-lists already play the role
   of stripes, so WFRC adopts only the cache layer. Unsynchronised:
   each thread touches exactly its own entry. *)
type tcache = { cslots : int array; mutable clen : int }

(* Cross-store fusion context ([Native] only): the raw arena and
   hot-vector blocks plus the node geometry the fused stubs need
   ({!Atomics.Words.take_fix} / [free_park]). *)
type fused = {
  aw : Words.t; (* the arena's raw block *)
  hw : Words.t; (* the hot vector's raw block *)
  node_geom : int array; (* [| nodes_base; node_stride |] *)
}

type t = {
  cfg : Mm_intf.config;
  backend : B.t;
  arena : Arena.t;
  ann : Ann.t;
  ctr : C.t;
  n : int; (* NR_THREADS *)
  hot : Hot.t;
  (* one padded slot per scheme global — see the hw_* map below *)
  fused : fused option;
  (* cross-store fusion context under [Native], where arena and hot
     vector are raw word blocks — see the [fused] type above *)
  oom_scan_limit : int;
  help_alloc : bool;
  (* ablation knob (experiment E-A3; the default is the paper's
     algorithm): [false] skips A11–A15 and FreeNode's own-cell
     hand-off, so no [annAlloc] cell is ever written, degrading
     AllocNode from wait-free to lock-free *)
  caches : tcache array option; (* per-thread caches when sharded *)
  batch : int;
  defer : Rcbuf.t option;
  (* per-thread rc-decrement buffers ([cfg.defer] > 0): the
     deferred-rc variant parks ReleaseRef decrements locally and only
     touches the shared mm_ref words at flush time (buffer-full, the
     A7 OOM path, [declare_dead], recovery, or quiescent inspection).
     [None] — every eager scheme — keeps the legacy code byte-exact. *)
  dead : bool array;
  (* tids declared permanently stopped (Mm_intf.declare_dead); set by
     the harness/supervisor, consulted by [recover] and the A7
     bounded-wait OOM path *)
  mutable recovering : bool;
  (* FreeNode's own-cell hand-off suppressed while a recovery pass
     runs, so reclaimed nodes land in allocator custody, not a live
     annAlloc *)
  adopt_lock : int Atomic.t;
  (* single-adopter guard for dead-cache draining under pressure *)
  work : int array array;
  (* per-thread R3 work stacks (reusable, grown on demand) *)
  scratch : int array array;
      (* per-thread link-collect buffers (num_links wide) for
         [Arena.release_collect] *)
  dctx : int array array;
      (* per-thread D1–D6 contexts ({!Ann.deref_ctx}): the node D4
         read and the slot D1 chose, plus under [Native] the geometry
         of the fused stub *)
}

(* Hot-vector slot map: [currentFreeList] at 0, [helpCurrent] at 1,
   [freeList[i]] at [2+i] (i in 0..2N-1), [annAlloc[id]] at
   [2+2N+id]. *)
let hw_current = 0
let hw_help = 1
let hw_free i = 2 + i
let hw_ann t id = 2 + (2 * t.n) + id

let arena t = t.arena
let counters t = t.ctr
let config t = t.cfg
let announcements t = t.ann

let create ?(help_alloc = true) (cfg : Mm_intf.config) =
  let backend = cfg.backend in
  let layout =
    Layout.create ~num_links:cfg.num_links ~num_data:cfg.num_data
  in
  let arena =
    Arena.create ~backend ~layout ~capacity:cfg.capacity
      ~num_roots:cfg.num_roots ()
  in
  (* Initial free state: all nodes chained into freeList[0], each with
     mm_ref = 1 (paper: "Initially 1", interpreted as in Valois — odd
     means claimed-by-allocator, count 0). *)
  for h = 1 to cfg.capacity do
    let p = Value.of_handle h in
    Arena.write_mm_next arena p
      (if h < cfg.capacity then Value.of_handle (h + 1) else Value.null);
    Arena.write arena (Arena.mm_ref_addr arena p) 1
  done;
  let n = cfg.threads in
  (* The scheme's globals are all FAA/CAS rendezvous points for every
     thread, so each gets its own cache-line pair on the hot vector. *)
  let hot =
    Hot.create ~backend (2 + (3 * n))
      ~init:(fun i -> if i = hw_free 0 then Value.of_handle 1 else 0)
  in
  let fused =
    match (Arena.raw arena, Hot.raw hot) with
    | Some aw, Some hw -> Some { aw; hw; node_geom = Arena.node_geom arena }
    | _ -> None
  in
  let ann = Ann.create ~backend ~threads:n () in
  {
    cfg;
    backend;
    arena;
    ann;
    ctr = C.create ~backend ~threads:n ();
    n;
    hot;
    fused;
    oom_scan_limit = (16 * n) + 16;
    help_alloc;
    caches =
      (if Mm_intf.sharded cfg then
         Some
           (Array.init n (fun _ ->
                { cslots = Array.make (2 * cfg.batch) Value.null; clen = 0 }))
       else None);
    batch = cfg.batch;
    defer =
      (if cfg.defer > 0 then Some (Rcbuf.create ~threads:n ~cap:cfg.defer)
       else None);
    dead = Array.make n false;
    recovering = false;
    adopt_lock = Atomic.make 0;
    work =
      Array.init n (fun _ ->
          Array.make (max 64 (4 * (cfg.num_links + 1))) 0);
    scratch = Array.init n (fun _ -> Array.make (max 1 cfg.num_links) 0);
    dctx =
      Array.init n (fun tid ->
          Ann.deref_ctx ann ~tid ~node_geom:(Arena.node_geom arena));
  }

(* Push onto thread [tid]'s work stack, growing it when a reclamation
   cascade outruns the current capacity (rare; the stack is reused
   across calls, so steady state never allocates). *)
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

(* ---------------- ReleaseRef (R1–R4) + FreeNode (F1–F10) ----------- *)

(* The R3 recursion ("recursively call ReleaseRef for all held
   references") runs as an explicit work stack so cascaded reclamation
   of long chains uses constant space and allocates nothing. The pop
   order matches the historical list-based worklist exactly (links
   high-to-low, then the remaining pending nodes), so the
   shared-memory op sequence — and with it every Sim schedule — is
   unchanged. *)
let rec release t ~tid node =
  C.incr t.ctr ~tid Release;
  match t.defer with
  | Some b when not t.recovering ->
      (* Deferred variant: R1 becomes a local append — the shared
         mm_ref keeps an over-approximation (2 per buffered entry), so
         the R2 claim point can only be postponed, never forged. The
         engine below stays eager for flushes, cascades and the
         recovery callbacks. *)
      C.incr t.ctr ~tid Rc_defer;
      if Rcbuf.defer_release b ~tid (Value.unmark node) then flush t ~tid
  | _ -> release_work t ~tid (work_push t ~tid 0 (Value.unmark node))

(* Flush one thread's rc buffer through the R1–R4 engine, oldest entry
   first. The [Native] arm batches every R1–R2 into one stub crossing
   ({!Atomics.Words.rc_flush}) and finishes R3/FreeNode here; the
   [Sim] arm issues the identical per-word sequence through
   [release_collect]. Claim outcomes and free-push order agree between
   the arms (all of a flush's decrements land before any claimed
   node's cascade can re-examine a count), so traces and counter
   totals are backend-independent. *)
and flush t ~tid =
  match t.defer with
  | Some b when Rcbuf.len b ~tid > 0 -> (
      C.incr t.ctr ~tid Rc_flush;
      let row = Rcbuf.row b ~tid in
      let n = Rcbuf.clear b ~tid in
      match t.fused with
      | Some f ->
          let claimed = Words.rc_flush f.aw ~nodes:row ~n ~geom:f.node_geom in
          flush_claimed t ~tid ~row ~claimed 0
      | None -> flush_seq t ~tid ~row ~n 0)
  | _ -> ()

and flush_seq t ~tid ~row ~n i =
  if i < n then begin
    release_work t ~tid (work_push t ~tid 0 row.(i));
    flush_seq t ~tid ~row ~n (i + 1)
  end

(* Finish the claimed nodes of a batched flush: R3's collect-and-clear
   (mirroring [release_collect]'s link order), then R4's FreeNode and
   the reclamation cascade — the same per-node steps [release_work]
   runs on its claimed branch. *)
and flush_claimed t ~tid ~row ~claimed i =
  if i < claimed then begin
    let node = row.(i) in
    let nl = t.cfg.num_links in
    let collected = ref 0 in
    for j = 0 to nl - 1 do
      let v = Arena.read_clear_link t.arena node j in
      if not (Value.is_null v) then begin
        t.scratch.(tid).(!collected) <- v;
        incr collected
      end
    done;
    let sp = push_collected t ~tid ~k:0 ~collected:!collected 0 in
    C.incr t.ctr ~tid Node_reclaimed;
    free_node t ~tid node;
    release_work t ~tid sp;
    flush_claimed t ~tid ~row ~claimed (i + 1)
  end

and release_work t ~tid sp =
  if sp > 0 then begin
    let sp = sp - 1 in
    let node = t.work.(tid).(sp) in
    (* R1-R3: release and, when we claimed the node, collect-and-clear
       the references its link slots held — one crossing under
       [Native]. *)
    let collected = Arena.release_collect t.arena node ~out:t.scratch.(tid) in
    if collected >= 0 then begin
      let sp = push_collected t ~tid ~k:0 ~collected sp in
      C.incr t.ctr ~tid Node_reclaimed;
      free_node t ~tid node;                                        (* R4 *)
      release_work t ~tid sp
    end
    else release_work t ~tid sp
  end
[@@wfrc.bounded
  "work-stack cascade: each iteration pops one claimed node and pushes only \
   that node's collected link targets, so the stack drains after at most \
   one entry per transitively reclaimed node (Lemma 7's bounded release \
   recursion, exercised to 20k nodes in t_core)"]

and push_collected t ~tid ~k ~collected sp =
  if k >= collected then sp
  else
    push_collected t ~tid ~k:(k + 1) ~collected
      (work_push t ~tid sp (Value.unmark t.scratch.(tid).(k)))

and free_node t ~tid node =
  (* Pre-condition: mm_ref = 1 (claimed), as established by R2 or by
     the initial chaining. From here the node is allocator custody —
     the own-cell hand-off, cache parking and the F4–F10 pushes only
     ever touch its mm_ref/mm_next words — so this is the lifecycle
     [Free] point for the reclamation oracle. *)
  Mm_intf.Events.emit ~tid node Mm_intf.Events.Free;
  C.incr t.ctr ~tid Free;
  (* The own-cell hand-off (replacing F1–F3): park the node in
     [annAlloc[tid]] if it is empty, with the donation-count
     correction (see module comment); this thread's next A4 takes it
     back. *)
  let parked =
    t.help_alloc
    && (not t.recovering)
    &&
    match t.fused with
    | Some f ->
        Words.free_park f.hw
          (Hot.word_of_slot (hw_ann t tid))
          ~arena:f.aw
          ~ref_addr:(Arena.mm_ref_addr t.arena node)
          ~node
    | None ->
        Hot.read t.hot (hw_ann t tid) = Value.null
        && begin
             Arena.faa_mm_ref t.arena node 2;
             Hot.cas t.hot (hw_ann t tid) ~old:Value.null ~nw:node
             || begin
                  Arena.faa_mm_ref t.arena node (-2);
                  false
                end
           end
  in
  if parked then C.incr t.ctr ~tid Free_gave_help
  else
    match t.caches with
    | Some caches ->
        (* Sharded config: park the claimed node (mm_ref stays 1) in
           the domain-local cache; on overflow, spill [batch] nodes
           through the ordinary F4–F10 pushes. The own cell was
           already tried above, and the helping channel that makes
           AllocNode wait-free (A11–A14) is untouched by the
           caching. *)
        let c = caches.(tid) in
        c.cslots.(c.clen) <- node;
        c.clen <- c.clen + 1;
        if c.clen = Array.length c.cslots then begin
          C.incr t.ctr ~tid Cache_spill;
          for _ = 1 to t.batch do
            c.clen <- c.clen - 1;
            free_push t ~tid c.cslots.(c.clen)
          done
        end
    | None -> free_push t ~tid node

(* F4–F10: push a claimed node onto one of the 2N free-lists. *)
and free_push t ~tid node =
  let n = t.n in
  let current = Hot.read t.hot hw_current in                        (* F4 *)
  let index =                                                       (* F5 *)
    if current <= tid || current > n + tid then n + tid             (* F6 *)
    else tid
  in
  let rec push index =                                              (* F7 *)
    let head = Hot.read t.hot (hw_free index) in
    Arena.write_mm_next t.arena node head;                          (* F8 *)
    if not (Hot.cas t.hot (hw_free index) ~old:head ~nw:node) then begin
                                                                    (* F9 *)
      C.incr t.ctr ~tid Free_retry;
      push ((index + n) mod (2 * n))                                (* F10 *)
    end
  [@@wfrc.bounded
    "F9-F10 two-list placement: a push CAS on freeList[i] only fails to an \
     AllocNode taking the whole list, and F5-F6 placed us on a list the \
     current allocator is not near, so the hop alternates between the two \
     candidate lists at most a bounded number of times (Lemma 10)"]
  in
  push index

(* Bounded-wait OOM degradation (sharded config only): before giving
   up, drain any declared-dead peers' domain-local caches back onto
   the shared free-lists — those nodes are invisible to A5/A6 scans
   and their owners will never return them. Serialised by a CAS guard;
   the loser reports 0 and falls through to backpressure. *)
let adopt_dead_caches t ~tid =
  match t.caches with
  | None -> 0
  | Some caches ->
      if not (Atomic.compare_and_set t.adopt_lock 0 1) then 0
      else begin
        let n = ref 0 in
        for id = 0 to t.n - 1 do
          if t.dead.(id) && id <> tid then begin
            let c = caches.(id) in
            while c.clen > 0 do
              c.clen <- c.clen - 1;
              C.incr t.ctr ~tid Recovery_adopt;
              incr n;
              free_push t ~tid c.cslots.(c.clen)
            done
          end
        done;
        Atomic.set t.adopt_lock 0;
        !n
      end

(* ---------------- AllocNode (A1–A18) ------------------------------- *)

(* The A3 loop, with its state — [helped] (A1), the helpee read at A2,
   and the consecutive-empty-scan count — as immediate arguments. The
   shared-memory op order is exactly the historical while-loop's. *)
let rec alloc_loop t ~tid ~help_id ~helped ~empty_scans =
  let taken =                                                       (* A4 *)
    match t.fused with
    | Some f ->
        (* A4 + FixRef(-1) in one crossing. *)
        Words.take_fix f.hw (Hot.word_of_slot (hw_ann t tid)) ~arena:f.aw
          ~geom:f.node_geom
    | None ->
        let v = Hot.take t.hot (hw_ann t tid) in
        if not (Value.is_null v) then
          Arena.faa_mm_ref t.arena v (-1);          (* FixRef(node, -1) *)
        v
  in
  if not (Value.is_null taken) then begin
    C.incr t.ctr ~tid Alloc_helped;
    Mm_intf.Events.emit ~tid taken Mm_intf.Events.Alloc;
    taken
  end
  else
    match t.caches with
    | Some caches when caches.(tid).clen > 0 ->
        (* Sharded config: serve from the domain-local cache with no
           shared-word traffic at all. The cached node carries
           mm_ref = 1; FAA (not a store) it to 2, because a stale D5
           may still land a transient +2/-2 pair on it. Donations
           (A4 above) keep priority so helped allocations are
           collected promptly. *)
        let c = caches.(tid) in
        c.clen <- c.clen - 1;
        let node = c.cslots.(c.clen) in
        Arena.faa_mm_ref t.arena node 1;
        Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
        node
    | _ ->
        (* Deferred A2 ([Native] only; see [alloc]): the first
           pass that can use the helpee reads it here, then the choice
           stays fixed for the call, as the pseudocode prescribes. *)
        let help_id =
          if help_id >= 0 then help_id else Hot.read t.hot hw_help  (* A2 *)
        in
        let current = Hot.read t.hot hw_current in                  (* A5 *)
        let node = Hot.read t.hot (hw_free current) in              (* A6 *)
        if Value.is_null node then begin                            (* A7 *)
          ignore
            (Hot.cas t.hot hw_current ~old:current
               ~nw:((current + 1) mod (2 * t.n)));
          if empty_scans + 1 > t.oom_scan_limit then begin
            (* Exhausted every list [oom_scan_limit] times over. The
               deferred variant first flushes its own rc buffer —
               pending decrements may be holding reclaimable nodes
               hostage — and rescans; the buffer is empty after one
               flush, so this retries at most once per refill. Then
               the legacy/Sim config keeps the hard stop; the sharded
               config first adopts dead peers' caches, then surfaces
               typed backpressure instead of an unbounded spin. *)
            match t.defer with
            | Some b when Rcbuf.len b ~tid > 0 ->
                flush t ~tid;
                C.incr t.ctr ~tid Alloc_retry;
                alloc_loop t ~tid ~help_id ~helped ~empty_scans:0
            | _ -> (
            match t.caches with
            | Some _ when adopt_dead_caches t ~tid > 0 ->
                C.incr t.ctr ~tid Alloc_retry;
                alloc_loop t ~tid ~help_id ~helped ~empty_scans:0
            | Some _ ->
                C.incr t.ctr ~tid Oom_backpressure;
                raise
                  (Mm_intf.Out_of_nodes
                     { retries = empty_scans + 1; waits = 0 })
            | None -> raise Mm_intf.Out_of_memory)
          end
          else begin
            C.incr t.ctr ~tid Alloc_retry;
            alloc_loop t ~tid ~help_id ~helped ~empty_scans:(empty_scans + 1)
          end
        end
        else begin
          Arena.faa_mm_ref t.arena node 2;                          (* A9 *)
          let next = Arena.read_mm_next t.arena node in
          if Hot.cas t.hot (hw_free current) ~old:node ~nw:next then begin
                                                                   (* A10 *)
            let gave =
              t.help_alloc
              && (not helped)
              && Hot.read t.hot (hw_ann t help_id) = Value.null     (* A11 *)
              && Hot.cas t.hot (hw_ann t help_id) ~old:Value.null ~nw:node
                                                                   (* A12 *)
            in
            if gave then begin
                                                                   (* A13 *)
              ignore
                (Hot.cas t.hot hw_help ~old:help_id
                   ~nw:((help_id + 1) mod t.n));                   (* A14 *)
              C.incr t.ctr ~tid Alloc_gave_help;
              C.incr t.ctr ~tid Alloc_retry;                       (* A15 *)
              alloc_loop t ~tid ~help_id ~helped:true ~empty_scans:0
            end
            else begin
              ignore
                (Hot.cas t.hot hw_help ~old:help_id
                   ~nw:((help_id + 1) mod t.n));                   (* A16 *)
              Arena.faa_mm_ref t.arena node (-1);   (* A17: FixRef(-1) *)
              Mm_intf.Events.emit ~tid node Mm_intf.Events.Alloc;
              node
            end
          end
          else begin
            release t ~tid node;                                   (* A18 *)
            C.incr t.ctr ~tid Alloc_retry;
            alloc_loop t ~tid ~help_id ~helped ~empty_scans:0
          end
        end

let alloc t ~tid =
  C.incr t.ctr ~tid Alloc;
  match t.fused with
  | None ->
      let help_id = Hot.read t.hot hw_help in                       (* A2 *)
      alloc_loop t ~tid ~help_id ~helped:false ~empty_scans:0  (* A1 / A3 *)
  | Some _ ->
      (* The A2 helpee read is deferred into the loop (sentinel -1):
         an A4 hit never consults it, and under [Native] that read
         is a stub crossing on the hottest path. The choice is
         still made at most once per call. *)
      alloc_loop t ~tid ~help_id:(-1) ~helped:false ~empty_scans:0

(* ---------------- DeRefLink (D1–D10) / HelpDeRef (H1–H8) ----------- *)

(* D1–D6: announce the link, read it, count the reference, retract.
   Returns D6's word [n1]; the node D4 read and the slot D1 chose are
   left in words 0 and 1 of the thread's context. Under [Native] the
   eager schemes run the six steps in one stub crossing
   ({!Ann.deref_fused}); [Sim] and the deferred variant issue them one
   by one. D2 skips its store when the index already holds the slot,
   in both arms alike. *)
let announce_read t ~tid link =
  let ctx = t.dctx.(tid) in
  match (t.fused, t.defer) with
  | Some f, None -> Ann.deref_fused t.ann ~arena:f.aw ~ctx link
  | _ ->
      let slot = Ann.choose_slot t.ann ~tid in                      (* D1 *)
      Ann.set_index t.ann ~tid slot;                                (* D2 *)
      Ann.announce t.ann ~tid ~slot link;                           (* D3 *)
      let node = Arena.read t.arena link in                         (* D4 *)
      (* D5, with increment sponging under the deferred variant: a +2
         whose target has a pending decrement in the CALLER'S OWN
         buffer annihilates that entry locally instead of touching the
         shared word — sound because the pending entry itself proves
         the shared count over-approximates by 2, so the node cannot
         have been claimed. A miss falls through to the eager FAA. *)
      (if not (Value.is_null node) then
         match t.defer with
         | Some b when Rcbuf.cancel b ~tid (Value.unmark node) ->
             C.incr t.ctr ~tid Rc_defer
         | _ -> Arena.faa_mm_ref t.arena node 2);                   (* D5 *)
      ctx.(0) <- node;
      ctx.(1) <- slot;
      Ann.retract t.ann ~tid ~slot                                  (* D6 *)

let deref_d1_d6 t ~tid link =
  let n1 = announce_read t ~tid link in
  (n1, t.dctx.(tid).(0), t.dctx.(tid).(1))

let rec deref t ~tid link =
  C.incr t.ctr ~tid Deref;
  let n1 = announce_read t ~tid link in                         (* D1–D6 *)
  let node = t.dctx.(tid).(0) in
  if n1 <> Value.enc_link link then begin                           (* D7 *)
    C.incr t.ctr ~tid Deref_helped;
    if not (Value.is_null node) then release t ~tid node;           (* D8 *)
    n1                                                              (* D9 *)
  end
  else node                                                        (* D10 *)

(* The H1 row loop. Under [Sim] it is the historical per-row walk —
   one H2 read and one H3 read per row, each crossing its scheduling
   point, byte-for-byte. Under [Native] the H2+H3 sweep is batched
   through {!Ann.scan_announced} (one stub call per run of
   non-matching rows); a hit is re-read (H2/H3
   again) before helping, which the protocol requires anyway — the
   announcement may have moved. [Help_scan] accounting is kept
   row-exact: every call still adds exactly [n] regardless of
   batching. *)
and help_deref t ~tid link =
  match t.backend with
  | B.Sim ->
      for id = 0 to t.n - 1 do                                      (* H1 *)
        C.incr t.ctr ~tid Help_scan;
        let slot = Ann.read_index t.ann ~id in                      (* H2 *)
        if Ann.read_slot t.ann ~id ~slot = Value.enc_link link then
          help_one t ~tid link ~id ~slot                            (* H3 *)
      done
  | B.Native -> help_scan_from t ~tid link 0

and help_scan_from t ~tid link from =
  if from < t.n then begin
    let id = Ann.scan_announced t.ann ~from (Value.enc_link link) in
    if id < 0 then C.add t.ctr ~tid Help_scan (t.n - from)
    else begin
      C.add t.ctr ~tid Help_scan (id - from + 1);
      let slot = Ann.read_index t.ann ~id in                        (* H2 *)
      if Ann.read_slot t.ann ~id ~slot = Value.enc_link link then
        help_one t ~tid link ~id ~slot;                             (* H3 *)
      help_scan_from t ~tid link (id + 1)
    end
  end
[@@wfrc.bounded
  "scan cursor: Ann.scan_announced returns a row id >= from (or -1), so \
   the recursive call at id+1 strictly advances the cursor toward the H1 \
   bound t.n"]

and help_one t ~tid link ~id ~slot =
  Ann.busy_incr t.ann ~id ~slot;                                    (* H4 *)
  let node = deref t ~tid link in                                   (* H5 *)
  if Ann.answer_cas t.ann ~id ~slot ~link node then                 (* H6 *)
    C.incr t.ctr ~tid Help_answered
  else begin
    C.incr t.ctr ~tid Help_refused;
    if not (Value.is_null node) then release t ~tid node            (* H7 *)
  end;
  Ann.busy_decr t.ann ~id ~slot                                     (* H8 *)

(* FixRef of Figure 5, exposed for reference copying (§3.2 prescribes
   FixRef(node, 2) when duplicating a shared pointer). *)
let fix_ref t node fix =
  if not (Value.is_null node) then Arena.faa_mm_ref t.arena node fix;
  node

(* ---------------- Quiescent inspection ----------------------------- *)

(* Quiescence is a flush trigger: drain every thread's rc buffer so
   a quiescent check reads the true counts (a free node carries
   mm_ref = 1 only once the decrements parked against it have
   landed). Quiescent-only, like the walk below. *)
let flush_all t =
  match t.defer with
  | Some _ ->
      for id = 0 to t.n - 1 do
        flush t ~tid:id
      done
  | None -> ()

(* The one quiescent walk: the accounting snapshot the post-run
   auditor, [validate] and [free_count] all read. Never raises,
   reporting structural damage as violation strings instead.
   AnnAlloc donations are [pending] under the cell's owner (only that
   thread's A4 can collect them), and unretracted announcement
   answers are [pinned] by the announcing thread — both exactly what
   a crashed thread strands. *)
let custody t =
  let cap = t.cfg.capacity in
  let free = Array.make (cap + 1) false in
  let violations = ref [] in
  let add s = violations := s :: !violations in
  let violation fmt = Printf.ksprintf add fmt in
  for i = 0 to (2 * t.n) - 1 do
    Arena.iter_chain t.arena ~head:(Hot.read t.hot (hw_free i))
      ~violation:(fun () -> violation "cycle in freeList[%d]" i)
      ~f:
        (Mm_intf.mark_free free ~violation:add
           ~twice:(Printf.sprintf "node #%d on two free chains"))
  done;
  let pending = ref [] in
  for i = 0 to t.n - 1 do
    let p = Hot.read t.hot (hw_ann t i) in
    if not (Value.is_null p) then begin
      let h = Value.handle p in
      if free.(h) then
        violation "annAlloc[%d] node #%d also on a free chain" i h
      else pending := (i, h) :: !pending
    end
  done;
  (* Domain-local caches count as [free] custody, like the free
     chains: the auditor's node partition must stay conservative when
     the run quiesced with populated caches. *)
  (match t.caches with
  | Some caches ->
      Array.iteri
        (fun tid c ->
          for i = 0 to c.clen - 1 do
            ignore
              (Mm_intf.mark_free free ~violation:add
                 ~twice:
                   (Printf.sprintf "cache[%d] node #%d also on a free chain"
                      tid)
                 c.cslots.(i))
          done)
        caches
  | None -> ());
  let pinned =
    List.map (fun (tid, p) -> (tid, Value.handle p)) (Ann.answers t.ann)
  in
  (* In-buffer pending decrements are their own custody class — the
     snapshot must NOT flush (it is taken over crashed runs), so the
     auditor sees exactly what each thread still owes the shared
     counts. A buffered decrement on a free-chain node would mean the
     claim fired while a decrement was still owed: structural
     damage. *)
  let deferred =
    match t.defer with
    | None -> []
    | Some b ->
        List.map
          (fun (tid, p) ->
            let h = Value.handle p in
            if h >= 1 && h <= cap && free.(h) then
              violation "rc buffer[%d] entry #%d is on a free chain" tid h;
            (tid, h))
          (Rcbuf.entries b)
  in
  Mm_intf.
    {
      free;
      pending = !pending;
      pinned;
      deferred;
      violations = List.rev !violations;
    }

let free_count t =
  flush_all t;
  Mm_intf.count_free (custody t)

(* ---------------- Crash recovery (quiescent-survivors) ------------- *)

let declare_dead t ~tid =
  if tid < 0 || tid >= t.n then invalid_arg "Gc.declare_dead";
  t.dead.(tid) <- true;
  (* Adopt-and-drain the dead thread's rc buffer at once: its pending
     decrements can never flush themselves again, and leaving them
     parked would hold the over-approximated counts (and any
     reclaimable nodes behind them) hostage. The owner is stopped, so
     working on its row/stacks is single-writer; counters attribute
     the drain to the dead tid. Donation stays suppressed like in
     [recover]: the drained nodes must reach allocator custody
     (free-lists/caches), not sit pending in a live annAlloc cell. *)
  let was = t.recovering in
  t.recovering <- true;
  Fun.protect ~finally:(fun () -> t.recovering <- was) @@ fun () ->
  flush t ~tid

let dead t =
  let acc = ref [] in
  for id = t.n - 1 downto 0 do
    if t.dead.(id) then acc := id :: !acc
  done;
  !acc

(* Finish the free a crashed thread never ran: clear the links as R3
   would (releasing their targets), restore the claimed count, and
   hand the node back to allocator custody. Only called on nodes with
   zero inbound links ([Rc_anomaly]'s gate), so no later cascade can
   release the node a second time. *)
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
    (* The own-cell hand-off stays suppressed for the whole pass
       (A11-A12 receipts only come from allocations, which a recovery
       pass runs none of): recovered nodes must land on the free-lists or
       caches (allocator custody), not in a live thread's annAlloc
       cell where they would sit pending until its next A4. *)
    t.recovering <- true;
    Fun.protect ~finally:(fun () -> t.recovering <- false) @@ fun () ->
    let adopted = ref 0 and released = ref 0 and cleared = ref 0 in
    (* 0. Drain every rc buffer (dead rows were already drained by
       [declare_dead]; survivor rows must empty too) so the
       [Rc_anomaly] fixpoint below analyses true counts — a pending
       decrement would read as crash-held surplus on a live node. *)
    flush_all t;
    (* 1. Dead announcement rows first: an un-retracted answer holds a
       reference acquired on the dead announcer's behalf (H6), which
       would read as surplus on a live node in step 2. *)
    for id = 0 to t.n - 1 do
      if t.dead.(id) then begin
        let slots, answers = Ann.clear_row t.ann ~tid:id in
        cleared := !cleared + slots;
        List.iter
          (fun p ->
            C.incr t.ctr ~tid Recovery_release;
            incr released;
            release t ~tid p)
          answers
      end
    done;
    cleared := !cleared + Ann.clear_busy t.ann;
    (* 2. Reference-count anomalies, to the fixpoint. *)
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
    adopted := !adopted + revived;
    released := !released + drops;
    (* 3. Dead threads' parked custody last — nothing above can have
       donated into a dead annAlloc cell (suppressed), so one pass
       drains each for good. Parked nodes carry the §6.0 inflation
       (mm_ref 3): restore the free-node claim of 1 before pushing. *)
    for id = 0 to t.n - 1 do
      if t.dead.(id) then begin
        let v = Hot.take t.hot (hw_ann t id) in
        if not (Value.is_null v) then begin
          Arena.faa_mm_ref t.arena v (-2);
          C.incr t.ctr ~tid Recovery_adopt;
          incr adopted;
          free_push t ~tid v
        end
      end
    done;
    adopted := !adopted + adopt_dead_caches t ~tid;
    { Mm_intf.adopted = !adopted; released = !released; cleared = !cleared }
  end

(* The custody checks, then what a crashed thread may legally leave
   behind and so only quiescence rules out: live announcements,
   parked nodes without their §6.0 inflation, global indices out of
   range. *)
let validate t =
  flush_all t;
  let c = custody t in
  Mm_intf.check_custody ~arena:t.arena ~refcounted:true c;
  Ann.validate t.ann;
  List.iter
    (fun (i, h) ->
      let r = Arena.read_mm_ref t.arena (Value.of_handle h) in
      if r <> 3 then
        failwith
          (Printf.sprintf "Gc: annAlloc[%d] node #%d has mm_ref=%d, expected 3"
             i h r))
    c.pending;
  let cur = Hot.read t.hot hw_current in
  if cur < 0 || cur >= 2 * t.n then
    failwith (Printf.sprintf "Gc: currentFreeList=%d out of range" cur);
  let hc = Hot.read t.hot hw_help in
  if hc < 0 || hc >= t.n then
    failwith (Printf.sprintf "Gc: helpCurrent=%d out of range" hc)
