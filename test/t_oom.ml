(* The exhaustion path of the paper's footnote 4: when the fixed arena
   runs dry, AllocNode must detect it and raise [Out_of_nodes] — the
   one exhaustion signal of every scheme on every free store — and
   freeing a single node must make allocation possible again. One
   thread, so the whole path is deterministic without the engine. *)

open Helpers

(* Capacity small enough that hp's per-thread hazard slots can pin
   every allocated node at once with a single thread. *)
let cfg () = small_cfg ~threads:1 ~capacity:12 ~num_roots:1 ()

(* Recycling may need an operation bracket or two before the freed
   node is allocatable again (ebr advances one epoch generation per
   bracket; hp scans under pool pressure). *)
let alloc_with_retries mm ~tid =
  let rec go n =
    Mm.enter_op mm ~tid;
    match Mm.alloc mm ~tid with
    | p ->
        Mm.terminate mm ~tid p;
        Mm.release mm ~tid p;
        Mm.exit_op mm ~tid
    | exception Mm.Out_of_nodes _ ->
        Mm.exit_op mm ~tid;
        if n = 0 then Alcotest.fail "freed node never became allocatable"
        else go (n - 1)
  in
  go 5

let exhaustion_roundtrip scheme =
  tc (scheme ^ ": exhaust, free one, alloc again") (fun () ->
      let cfg = cfg () in
      let mm = mm_of scheme cfg in
      let tid = 0 in
      Mm.enter_op mm ~tid;
      let held = ref [] in
      (try
         while true do
           held := Mm.alloc mm ~tid :: !held
         done
       with Mm.Out_of_nodes _ -> ());
      check_int "every node was handed out" cfg.capacity
        (List.length !held);
      check_int "free store empty at exhaustion" 0 (Mm.free_count mm);
      (* still exhausted: a retry without freeing must fail again *)
      (match Mm.alloc mm ~tid with
      | _ -> Alcotest.fail "alloc succeeded on an exhausted arena"
      | exception Mm.Out_of_nodes _ -> ());
      (* free exactly one node *)
      (match !held with
      | [] -> Alcotest.fail "nothing allocated"
      | p :: rest ->
          Mm.terminate mm ~tid p;
          Mm.release mm ~tid p;
          held := rest);
      Mm.exit_op mm ~tid;
      (* ... and allocation works again *)
      alloc_with_retries mm ~tid;
      (* the rest of the held nodes are still valid and releasable *)
      Mm.enter_op mm ~tid;
      List.iter
        (fun p ->
          Mm.terminate mm ~tid p;
          Mm.release mm ~tid p)
        !held;
      Mm.exit_op mm ~tid)

(* Exhaustion must also be detected mid-structure: fill the arena via
   root links so the nodes are genuinely in use, not just held. *)
let exhaustion_in_structure scheme =
  tc (scheme ^ ": OOM with all nodes linked into the structure")
    (fun () ->
      let cfg =
        small_cfg ~threads:1 ~capacity:8 ~num_links:1 ~num_roots:1 ()
      in
      let mm = mm_of scheme cfg in
      let tid = 0 in
      let arena = Mm.arena mm in
      let root = Arena.root_addr arena 0 in
      Mm.enter_op mm ~tid;
      (* build a list of all [capacity] nodes hanging off the root *)
      for _ = 1 to cfg.capacity do
        let p = Mm.alloc mm ~tid in
        let old = Mm.deref mm ~tid root in
        Mm.store_link mm ~tid (Arena.link_addr arena p 0) old;
        if not (Value.is_null old) then Mm.release mm ~tid old;
        Mm.store_link mm ~tid root p;
        Mm.release mm ~tid p
      done;
      (match Mm.alloc mm ~tid with
      | _ -> Alcotest.fail "alloc succeeded with every node reachable"
      | exception Mm.Out_of_nodes _ -> ());
      (* pop one node off the list; its memory must come back *)
      let p = Mm.deref mm ~tid root in
      let next = Mm.deref mm ~tid (Arena.link_addr arena p 0) in
      Mm.store_link mm ~tid root next;
      if not (Value.is_null next) then Mm.release mm ~tid next;
      Mm.release mm ~tid p;
      Mm.terminate mm ~tid p;
      Mm.exit_op mm ~tid;
      alloc_with_retries mm ~tid)

(* Bounded OOM degradation (DESIGN.md §7): on the sharded Native
   store, exhaustion with a crashed peer holding the last nodes must
   terminate with typed [Out_of_nodes] backpressure — after a bounded
   number of scan/park rounds, never an unbounded park — and declaring
   the peer dead must unblock allocation through dead-cache adoption
   alone, before any full recovery pass. Driven single-threaded with
   tid indices: manager ops need no engine. *)
let dead_holder_backpressure scheme =
  tc (scheme ^ ": dead holder degrades to Out_of_nodes, adoption unblocks")
    (fun () ->
      let capacity = 24 in
      let cfg =
        Mm.config ~backend:Atomics.Backend.Native ~shards:2 ~batch:4
          ~threads:2 ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 ()
      in
      let mm = mm_of scheme cfg in
      let hold tid =
        let held = ref [] in
        (try
           for _ = 1 to capacity + 1 do
             held := Mm.alloc mm ~tid :: !held
           done
         with Mm.Out_of_nodes _ -> ());
        !held
      in
      (* the doomed peer takes everything, parks one cache-full back
         (only adoption can reach those), then "crashes" *)
      let held1 = hold 1 in
      check_bool "peer took the arena" true (List.length held1 > capacity / 2);
      let rec release_n n = function
        | p :: rest when n > 0 ->
            Mm.release mm ~tid:1 p;
            release_n (n - 1) rest
        | _ -> ()
      in
      release_n 8 held1;
      (* the survivor's exhausted alloc must be typed backpressure with
         bounded retry accounting, not a hang *)
      let held0 = ref [] and seen = ref None in
      (try
         for _ = 1 to capacity + 1 do
           held0 := Mm.alloc mm ~tid:0 :: !held0
         done
       with Mm.Out_of_nodes { retries; waits } ->
         seen := Some (retries, waits));
      (match !seen with
      | Some (retries, waits) ->
          check_bool "bounded retries recorded" true (retries >= 1);
          check_bool "wait count is sane" true (waits >= 0)
      | None -> Alcotest.fail "exhaustion never surfaced");
      List.iter (fun p -> Mm.release mm ~tid:0 p) !held0;
      (* declaring the peer dead unblocks allocation via the in-alloc
         dead-cache adoption path alone *)
      Mm.declare_dead mm ~tid:1;
      (match Mm.alloc mm ~tid:0 with
      | p -> Mm.release mm ~tid:0 p
      | exception Mm.Out_of_nodes _ ->
          Alcotest.fail "adoption did not unblock allocation");
      (* a full recovery pass returns the dead peer's held nodes too *)
      let o = Harness.Recovery.run ~dead:[ 1 ] ~by:0 mm in
      let post = o.Harness.Recovery.post in
      check_bool
        ("post-recovery audit ok: " ^ Harness.Audit.to_string post)
        true
        (Harness.Audit.ok post);
      check_int "crash_held collapsed" 0 post.Harness.Audit.crash_held;
      check_int "nothing leaked" 0 post.Harness.Audit.leaked;
      match Mm.alloc mm ~tid:0 with
      | p -> Mm.release mm ~tid:0 p
      | exception Mm.Out_of_nodes _ ->
          Alcotest.fail "allocation still blocked after recovery")

(* The one exhaustion signal: every scheme, on the Sim single list,
   the Native single list and the Native sharded store, raises
   [Out_of_nodes] once one thread holds the whole arena, and takes
   every node back. *)
let stores =
  [
    ("sim", fun ~capacity -> small_cfg ~threads:1 ~capacity ~num_roots:1 ());
    ( "native",
      fun ~capacity ->
        Mm.config ~backend:Atomics.Backend.Native ~threads:1 ~capacity
          ~num_links:1 ~num_data:1 ~num_roots:1 () );
    ( "native sharded",
      fun ~capacity ->
        Mm.config ~backend:Atomics.Backend.Native ~shards:2 ~batch:2
          ~threads:1 ~capacity ~num_links:1 ~num_data:1 ~num_roots:1 () );
  ]

let one_signal =
  tc "every scheme on every store: exhaustion raises Out_of_nodes"
    (fun () ->
      (* one thread, so no node is donated to a peer's annAlloc cell,
         and within hp's per-thread hazard slots, so it can hold every
         node *)
      let capacity = 12 and tid = 0 in
      List.iter
        (fun (store, cfg) ->
          List.iter
            (fun scheme ->
              let what = scheme ^ " on " ^ store in
              let mm = mm_of scheme (cfg ~capacity) in
              Mm.enter_op mm ~tid;
              let held = ref [] in
              (match
                 for _ = 1 to capacity + 1 do
                   held := Mm.alloc mm ~tid :: !held
                 done
               with
              | () -> Alcotest.failf "%s: no Out_of_nodes" what
              | exception Mm.Out_of_nodes _ -> ());
              check_int (what ^ ": whole arena held") capacity
                (List.length !held);
              List.iter
                (fun p ->
                  Mm.terminate mm ~tid p;
                  Mm.release mm ~tid p)
                !held;
              Mm.exit_op mm ~tid;
              check_int (what ^ ": every node back") capacity
                (Mm.free_count mm);
              Mm.validate mm)
            all_schemes)
        stores)

let suite =
  one_signal
  :: List.concat_map
    (fun s -> [ exhaustion_roundtrip s; exhaustion_in_structure s ])
    all_schemes
  @ List.map dead_holder_backpressure rc_schemes
