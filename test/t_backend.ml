(* The pluggable memory backends: padded-cell semantics, the
   zero-hook-dispatch guarantee of [Native], and Sim/Native
   behavioural equivalence for every registered scheme (the backends
   must differ only in cost model, never in results). *)

open Helpers
module B = Atomics.Backend

let cell_tests =
  [
    tc "name/of_string round-trip" (fun () ->
        check_string "sim" "sim" (B.name (B.of_string "sim"));
        check_string "native" "native" (B.name (B.of_string "native"));
        fails_with ~substring:"of_string" (fun () -> B.of_string "gpu"));
    tc "contended cell occupies a full line pair" (fun () ->
        let c = B.make_contended B.Native 7 in
        check_int "block size" B.cache_line_words (Obj.size (Obj.repr c));
        (* a plain cell for comparison *)
        check_int "plain size" 1 (Obj.size (Obj.repr (B.make B.Native 7))));
    tc "padded cell has figure 2 semantics" (fun () ->
        List.iter
          (fun c ->
            check_int "init" 10 (Atomic.get c);
            check_int "faa returns old" 10 (B.faa B.Native c 5);
            check_int "faa added" 15 (B.read B.Native c);
            check_bool "cas hit" true (B.cas B.Native c ~old:15 ~nw:1);
            check_bool "cas miss" false (B.cas B.Native c ~old:15 ~nw:99);
            check_int "swap returns old" 1 (B.swap B.Native c 7);
            B.write B.Native c 42;
            check_int "write" 42 (B.read B.Native c))
          [ B.make_contended B.Native 10; B.make B.Native 10 ]);
    tc "padded cells survive a GC cycle" (fun () ->
        let cells = Array.init 100 (fun i -> B.make_contended B.Native i) in
        Gc.full_major ();
        Array.iteri
          (fun i c -> check_int "value" i (Atomic.get c))
          cells);
    tc "prims modules expose matching names" (fun () ->
        let (module S) = B.prims B.Sim in
        let (module N) = B.prims B.Native in
        check_string "sim" "sim" S.name;
        check_string "native" "native" N.name);
  ]

(* A deterministic single-thread client workload that is legal under
   every scheme's protocol (the retire-based schemes need the
   enter/exit bracket and [terminate] at unlink time; the RC schemes
   treat both as cheap bookkeeping). Returns a full behavioural trace
   plus the final counter totals — everything observable — and
   whether the instance's arena sits on a raw word store. *)
let run_workload ~backend scheme =
  let cfg =
    Mm.config ~backend ~threads:2 ~capacity:64 ~num_links:1 ~num_data:1
      ~num_roots:2 ()
  in
  let mm = Harness.Registry.instantiate scheme cfg in
  let root = Arena.root_addr (Mm.arena mm) 0 in
  let rng = Sched.Rng.create 91_001 in
  let trace = ref [] in
  let push v = trace := v :: !trace in
  let ptr p = if Value.is_null p then 0 else Value.handle p in
  for _step = 1 to 300 do
    Mm.enter_op mm ~tid:0;
    (match Sched.Rng.int rng 3 with
    | 0 ->
        (* alloc, publish briefly via the root, retire *)
        (try
           let p = Mm.alloc mm ~tid:0 in
           push (ptr p);
           Mm.release mm ~tid:0 p;
           Mm.terminate mm ~tid:0 p
         with Mm.Out_of_memory | Mm.Out_of_nodes _ -> push (-1))
    | 1 -> (
        let p = Mm.deref mm ~tid:0 root in
        push (ptr p);
        if not (Value.is_null p) then Mm.release mm ~tid:0 p)
    | _ -> (
        try
          let b = Mm.alloc mm ~tid:0 in
          let old = Mm.deref mm ~tid:0 root in
          let swapped = Mm.cas_link mm ~tid:0 root ~old ~nw:b in
          push (ptr b);
          push (ptr old);
          push (if swapped then 1 else 0);
          if swapped && not (Value.is_null old) then begin
            Mm.release mm ~tid:0 old;
            Mm.terminate mm ~tid:0 old
          end;
          if not (Value.is_null old) && not swapped then
            Mm.release mm ~tid:0 old;
          Mm.release mm ~tid:0 b
        with Mm.Out_of_memory | Mm.Out_of_nodes _ -> push (-1)));
    Mm.exit_op mm ~tid:0
  done;
  (* unlink whatever the root still holds, then quiesce *)
  Mm.enter_op mm ~tid:0;
  let last = Mm.deref mm ~tid:0 root in
  if not (Value.is_null last) then begin
    ignore (Mm.cas_link mm ~tid:0 root ~old:last ~nw:Value.null);
    Mm.release mm ~tid:0 last;
    Mm.terminate mm ~tid:0 last
  end;
  Mm.exit_op mm ~tid:0;
  push (Mm.free_count mm);
  Mm.validate mm;
  let counters =
    String.concat ","
      (List.map
         (fun (ev, n) ->
           Printf.sprintf "%s=%d" (Atomics.Counters.event_name ev) n)
         (Atomics.Counters.snapshot (Mm.counters mm)))
  in
  (List.rev !trace, counters, Arena.raw (Mm.arena mm) <> None)

let stack_roundtrip ~backend () =
  let cfg =
    Mm.config ~backend ~threads:2 ~capacity:32 ~num_links:1 ~num_data:1
      ~num_roots:1 ()
  in
  let mm = Harness.Registry.instantiate "wfrc" cfg in
  let stack = Structures.Stack.create mm ~root:0 in
  for i = 1 to 20 do
    Structures.Stack.push stack ~tid:0 (i * i)
  done;
  Structures.Stack.drain stack ~tid:0

(* Every scheme on the Native raw word store must reproduce the Sim
   trace and counter totals exactly. *)
let equivalence_tests =
  List.map
    (fun scheme ->
      tc
        (Printf.sprintf "%s on native unboxed matches sim" scheme)
        (fun () ->
          let sim_trace, sim_ctr, _ = run_workload ~backend:B.Sim scheme in
          let nat_trace, nat_ctr, nat_raw =
            run_workload ~backend:B.Native scheme
          in
          check_bool "native arena is a raw store" true nat_raw;
          Alcotest.(check (list int)) "trace" sim_trace nat_trace;
          check_string "counters" sim_ctr nat_ctr))
    Harness.Registry.names
  @ [
      tc "stack round-trip is backend-independent" (fun () ->
          Alcotest.(check (list int))
            "drain"
            (stack_roundtrip ~backend:B.Sim ())
            (stack_roundtrip ~backend:B.Native ()));
    ]

(* The sharded native store must not change what any scheme computes.
   Raw handle traces are not comparable across allocators — a free
   list has set semantics, and the cache legitimately reuses nodes in
   a different order than each scheme's legacy placement (wfrc's
   F5-F6 heuristic, hp/ebr scan order) — so this runs the same
   deterministic client workload and records every op-level
   observable that IS allocator-independent: alloc success/OOM, deref
   null-ness, CAS outcomes, and the final free count. Node identity
   is checked against a shadow of the root ("deref returns exactly
   the node last stored") inside the run rather than across runs. *)
let run_shape_workload ?(shards = 1) ?(batch = 1) ~backend scheme =
  let cfg =
    Mm.config ~backend ~shards ~batch ~threads:2 ~capacity:64 ~num_links:1
      ~num_data:1 ~num_roots:2 ()
  in
  let mm = Harness.Registry.instantiate scheme cfg in
  let root = Arena.root_addr (Mm.arena mm) 0 in
  let rng = Sched.Rng.create 91_001 in
  let shadow = ref Value.null in
  let trace = ref [] in
  let push v = trace := v :: !trace in
  let h p = if Value.is_null p then 0 else Value.handle p in
  let check_root p =
    check_int "deref returns the node last stored" (h !shadow) (h p)
  in
  for _step = 1 to 300 do
    Mm.enter_op mm ~tid:0;
    (match Sched.Rng.int rng 3 with
    | 0 -> (
        try
          let p = Mm.alloc mm ~tid:0 in
          push 1;
          Mm.release mm ~tid:0 p;
          Mm.terminate mm ~tid:0 p
        with Mm.Out_of_memory | Mm.Out_of_nodes _ -> push (-1))
    | 1 -> (
        let p = Mm.deref mm ~tid:0 root in
        check_root p;
        push (if Value.is_null p then 0 else 2);
        if not (Value.is_null p) then Mm.release mm ~tid:0 p)
    | _ -> (
        try
          let b = Mm.alloc mm ~tid:0 in
          let old = Mm.deref mm ~tid:0 root in
          check_root old;
          let swapped = Mm.cas_link mm ~tid:0 root ~old ~nw:b in
          if swapped then shadow := b;
          push (if Value.is_null old then 0 else 2);
          push (if swapped then 1 else 0);
          if swapped && not (Value.is_null old) then begin
            Mm.release mm ~tid:0 old;
            Mm.terminate mm ~tid:0 old
          end;
          if (not (Value.is_null old)) && not swapped then
            Mm.release mm ~tid:0 old;
          Mm.release mm ~tid:0 b
        with Mm.Out_of_memory | Mm.Out_of_nodes _ -> push (-1)));
    Mm.exit_op mm ~tid:0
  done;
  Mm.enter_op mm ~tid:0;
  let last = Mm.deref mm ~tid:0 root in
  check_root last;
  if not (Value.is_null last) then begin
    ignore (Mm.cas_link mm ~tid:0 root ~old:last ~nw:Value.null);
    Mm.release mm ~tid:0 last;
    Mm.terminate mm ~tid:0 last
  end;
  Mm.exit_op mm ~tid:0;
  push (Mm.free_count mm);
  Mm.validate mm;
  List.rev !trace

let sharded_equivalence_tests =
  List.concat_map
    (fun scheme ->
      List.map
        (fun shards ->
          tc
            (Printf.sprintf "%s with %d-stripe store matches sim op-for-op"
               scheme shards)
            (fun () ->
              let sim_trace = run_shape_workload ~backend:B.Sim scheme in
              let nat_trace =
                run_shape_workload ~backend:B.Native ~shards ~batch:4 scheme
              in
              Alcotest.(check (list int)) "op results" sim_trace nat_trace))
        [ 1; 2; 4 ])
    Harness.Registry.names

(* Custody conservation with a populated store: drive nodes into a
   thread cache and a remote stripe's return buffer, then check that
   inspection still finds every node exactly once. tid 1 drains its
   home stripe (capacity 32, 2 stripes, so handles 17..32); tid 0
   frees all 16 — its cache fills and every spill is remote, so the
   return buffer fills and the overflow falls back to direct chain
   pushes. *)
let freestore_custody_tests =
  [
    tc "populated caches and return buffers conserve every node" (fun () ->
        let backend = B.Native in
        let layout = Shmem.Layout.create ~num_links:1 ~num_data:1 in
        let arena = Arena.create ~backend ~layout ~capacity:32 ~num_roots:0 () in
        let ctr = Atomics.Counters.create ~backend ~threads:2 () in
        let fs =
          Shmem.Freestore.create ~backend ~arena ~counters:ctr ~shards:2
            ~batch:2 ~threads:2 ()
        in
        let taken =
          List.init 16 (fun _ ->
              match Shmem.Freestore.alloc fs ~tid:1 with
              | Some p -> p
              | None -> Alcotest.fail "stripe 1 ran dry early")
        in
        List.iter (fun p -> Shmem.Freestore.free fs ~tid:0 p) taken;
        check_bool "tid 0 cache populated" true
          (Shmem.Freestore.cached fs ~tid:0 > 0);
        check_bool "return buffers populated" true
          (Shmem.Freestore.buffered fs > 0);
        check_bool "remote frees recorded" true
          (Atomics.Counters.total ctr Atomics.Counters.Free_remote > 0);
        let seen = Array.make 33 false in
        let count = ref 0 in
        Shmem.Freestore.iter_free fs
          ~violation:(fun s -> Alcotest.fail s)
          ~f:(fun p ->
            let h = Value.handle p in
            check_bool "no duplicate" false seen.(h);
            seen.(h) <- true;
            incr count);
        check_int "every node accounted for" 32 !count;
        (* All of it is allocatable again by tid 0, whose full pass
           reaches its own cache, both stripe chains and both return
           buffers. (tid 1 could not: tid 0's cache is private — the
           reason managers retry OOM instead of trusting one empty
           pass.) *)
        for _ = 1 to 32 do
          match Shmem.Freestore.alloc fs ~tid:0 with
          | Some _ -> ()
          | None -> Alcotest.fail "node unreachable to alloc"
        done;
        check_bool "then empty" true (Shmem.Freestore.alloc fs ~tid:0 = None));
    tc "auditor conserves a manager with populated caches/buffers" (fun () ->
        let cfg =
          Mm.config ~backend:B.Native ~shards:2 ~batch:2 ~threads:2
            ~capacity:32 ~num_links:1 ~num_data:1 ~num_roots:1 ()
        in
        let mm = Harness.Registry.instantiate "lfrc" cfg in
        Mm.enter_op mm ~tid:1;
        let nodes = List.init 16 (fun _ -> Mm.alloc mm ~tid:1) in
        Mm.exit_op mm ~tid:1;
        Mm.enter_op mm ~tid:0;
        List.iter
          (fun p ->
            Mm.release mm ~tid:0 p;
            Mm.terminate mm ~tid:0 p)
          nodes;
        Mm.exit_op mm ~tid:0;
        let ctr = Mm.counters mm in
        check_bool "remote frees happened" true
          (Atomics.Counters.total ctr Atomics.Counters.Free_remote > 0);
        check_bool "cache spills happened" true
          (Atomics.Counters.total ctr Atomics.Counters.Cache_spill > 0);
        let r = Harness.Audit.run mm in
        check_bool
          ("audit ok: " ^ Harness.Audit.to_string r)
          true (Harness.Audit.ok r);
        check_int "everything is free custody" 32 r.Harness.Audit.free;
        check_int "nothing leaked" 0 r.Harness.Audit.leaked);
  ]

(* A parked allocator is woken by a remote free: tid 1 drains the
   store dry and parks on it; tid 0 then frees a node, whose stripe
   push must wake the parker. *)
let park_wake_tests =
  [
    tc "a parked thread is woken by a remote free" (fun () ->
        let backend = B.Native in
        let layout = Shmem.Layout.create ~num_links:1 ~num_data:1 in
        let arena = Arena.create ~backend ~layout ~capacity:8 ~num_roots:0 () in
        let ctr = Atomics.Counters.create ~backend ~threads:2 () in
        let fs =
          Shmem.Freestore.create ~backend ~arena ~counters:ctr ~shards:1
            ~batch:1 ~threads:2 ()
        in
        (* tid 0 drains the store dry *)
        let drained =
          List.init 8 (fun _ ->
              match Shmem.Freestore.alloc fs ~tid:0 with
              | Some p -> p
              | None -> Alcotest.fail "store ran dry early")
        in
        let got = Atomic.make Value.null in
        let waiter =
          Domain.spawn (fun () ->
              let rec go () =
                match Shmem.Freestore.alloc fs ~tid:1 with
                | Some p -> Atomic.set got p
                | None ->
                    (* untimed is safe here: the main thread frees only
                       after it has seen this waiter registered, and the
                       eventcount generation closes the publish/park
                       race — production callers use finite timeouts
                       because cache-local frees generate no wake *)
                    Shmem.Freestore.wait_free fs ~tid:1 ~timeout_ns:(-1);
                    go ()
              in
              go ())
        in
        (* only free once the waiter is actually parked, so the wake
           path (not just polling) is what resumes it *)
        while Shmem.Freestore.waiters fs = 0 do
          Domain.cpu_relax ()
        done;
        (* tid 0's cache holds 2*batch nodes before it spills, and
           cache-local frees are invisible (no wake) — free enough to
           force a spill, whose stripe push carries the wake *)
        List.iteri
          (fun i p -> if i < 3 then Shmem.Freestore.free fs ~tid:0 p)
          drained;
        Domain.join waiter;
        check_bool "waiter obtained the freed node" false
          (Value.is_null (Atomic.get got));
        check_bool "waiter parked" true
          (Atomics.Counters.total ctr Atomics.Counters.Park_wait > 0);
        check_bool "freeing thread woke it" true
          (Atomics.Counters.total ctr Atomics.Counters.Park_wake > 0));
  ]

(* The acceptance property of the native backend: a full manager
   workload crosses ZERO scheduling points, while the same workload on
   the sim backend crosses one per primitive. *)
let hook_workload ~backend =
  let hits = ref 0 in
  Atomics.Schedpoint.with_hook
    (fun () -> incr hits)
    (fun () ->
      let cfg =
        Mm.config ~backend ~threads:2 ~capacity:32 ~num_links:1 ~num_data:1
          ~num_roots:1 ()
      in
      let mm = Harness.Registry.instantiate "wfrc" cfg in
      let root = Arena.root_addr (Mm.arena mm) 0 in
      Mm.enter_op mm ~tid:0;
      for _ = 1 to 50 do
        let p = Mm.alloc mm ~tid:0 in
        Mm.store_link mm ~tid:0 root p;
        let q = Mm.deref mm ~tid:0 root in
        Mm.release mm ~tid:0 q;
        ignore (Mm.cas_link mm ~tid:0 root ~old:p ~nw:Value.null);
        Mm.release mm ~tid:0 p;
        Mm.terminate mm ~tid:0 p
      done;
      Mm.exit_op mm ~tid:0);
  !hits

let hook_tests =
  [
    tc "native manager performs zero hook dispatches" (fun () ->
        check_int "hits" 0 (hook_workload ~backend:B.Native));
    tc "sim manager crosses a scheduling point per primitive" (fun () ->
        check_bool "hits > 1000"
          true
          (hook_workload ~backend:B.Sim > 1000));
    tc "native backoff never consults the hook" (fun () ->
        let hits = ref 0 in
        Atomics.Schedpoint.with_hook
          (fun () -> incr hits)
          (fun () ->
            let b = Atomics.Backoff.create ~backend:B.Native () in
            for _ = 1 to 10 do
              Atomics.Backoff.once b
            done);
        check_int "hits" 0 !hits);
  ]

(* Per-domain scratch layout. Every block a manager or structure
   makes for one thread's hot path is made at [create], in one domain,
   so unpadded they are promoted side by side: one thread's writes
   then invalidate the line another thread's block shares (wfrc's
   D1–D6 contexts were 80 bytes apart, the collect buffers 16–40 and
   the cache records 24). After a full major GC (the major heap does
   not move blocks), the used words of different threads' blocks must
   be at least a cache-line pair apart. *)
let addr (o : Obj.t) : int = Obj.magic o

let gap_bytes (a : B.owned) (b : B.owned) =
  (* [addr] reinterprets a block pointer as an OCaml int, which reads
     as half the address; a difference of two is exact, so twice it is
     the distance in bytes *)
  let lo, hi = if addr a.block <= addr b.block then (a, b) else (b, a) in
  (2 * (addr hi.block - addr lo.block)) - (8 * (lo.used - 1))

let check_layout what blocks_of =
  Gc.full_major ();
  let blocks : B.owned list = blocks_of () in
  check_bool (what ^ ": two owners") true
    (List.exists (fun (b : B.owned) -> b.owner = 1) blocks);
  List.iter
    (fun (a : B.owned) ->
      check_bool
        (Printf.sprintf "%s: %s holds its used words" what a.label)
        true
        (a.used >= 1 && Obj.size a.block >= a.used);
      List.iter
        (fun (b : B.owned) ->
          if a.owner < b.owner then begin
            let g = gap_bytes a b in
            if g < 128 then
              Alcotest.failf
                "%s: thread %d's %s and thread %d's %s are %d bytes apart" what
                a.owner a.label b.owner b.label g
          end)
        blocks)
    blocks

let layout_tests =
  let cfg ?(shards = 1) ?(batch = 1) ?(num_links = 2) ?(num_data = 1) () =
    Mm.config ~backend:B.Native ~threads:2 ~capacity:256 ~num_links ~num_data
      ~num_roots:2 ~shards ~batch ()
  in
  let sharded () = cfg ~shards:2 ~batch:8 () in
  [
    tc "padded copies a block and appends a cache-line pair" (fun () ->
        let a = B.padded [| 1; 2; 3 |] in
        check_int "length" (3 + B.cache_line_words) (Array.length a);
        check_bool "used words" true (Array.sub a 0 3 = [| 1; 2; 3 |]);
        check_bool "padding is zero" true
          (Array.for_all (( = ) 0) (Array.sub a 3 B.cache_line_words));
        let r = B.padded (ref 5) in
        r := !r + 1;
        check_int "record field" 6 !r;
        check_int "record size" (1 + B.cache_line_words)
          (Obj.size (Obj.repr r));
        fails_with ~substring:"padded" (fun () -> B.padded 3);
        fails_with ~substring:"padded" (fun () -> B.padded 1.5));
    tc "layout: wfrc scratch blocks are a line pair apart" (fun () ->
        let t = Wfrc.create (cfg ()) in
        check_layout "wfrc" (fun () -> Wfrc.Gc.scratch_blocks t));
    tc "layout: sharded wfrc scratch and caches are a line pair apart"
      (fun () ->
        let t = Wfrc.create (sharded ()) in
        check_bool "has caches" true
          (List.exists
             (fun (b : B.owned) -> b.label = "cslots")
             (Wfrc.Gc.scratch_blocks t));
        check_layout "wfrc sharded" (fun () -> Wfrc.Gc.scratch_blocks t));
    tc "layout: lfrc scratch blocks are a line pair apart" (fun () ->
        let t = Lfrc.create (cfg ()) in
        check_layout "lfrc" (fun () -> Lfrc.scratch_blocks t);
        let t = Lfrc.create (sharded ()) in
        check_layout "lfrc sharded" (fun () -> Lfrc.scratch_blocks t));
    tc "layout: hp per-thread records are a line pair apart" (fun () ->
        let t = Hazard.create (cfg ()) in
        check_layout "hp" (fun () -> Hazard.scratch_blocks t);
        let t = Hazard.create (sharded ()) in
        check_layout "hp sharded" (fun () -> Hazard.scratch_blocks t));
    tc "layout: ebr per-thread records are a line pair apart" (fun () ->
        let t = Epoch.create (cfg ()) in
        check_layout "ebr" (fun () -> Epoch.scratch_blocks t);
        let t = Epoch.create (sharded ()) in
        check_layout "ebr sharded" (fun () -> Epoch.scratch_blocks t));
    tc "layout: pqueue level generators are a line pair apart" (fun () ->
        let mm = mm_of "wfrc" (cfg ~num_links:4 ~num_data:3 ()) in
        let q = Structures.Pqueue.create mm ~seed:1 ~tid:0 in
        check_layout "pqueue" (fun () -> Structures.Pqueue.scratch_blocks q));
  ]

let suite =
  cell_tests @ equivalence_tests @ sharded_equivalence_tests
  @ freestore_custody_tests @ park_wake_tests @ hook_tests @ layout_tests
