(* Native (Domain-based) stress tests of the wait-free scheme:
   conservation, exclusive hand-out, deref safety and quiescent
   invariants under real preemption. *)

open Helpers
module Value = Shmem.Value
module Arena = Shmem.Arena
module Mm = Mm_intf

let churn_test ~threads ~rounds ~capacity () =
  let cfg =
    Mm.config ~threads ~capacity ~num_links:0 ~num_data:1 ~num_roots:0 ()
  in
  let mm = mm_of "wfrc" cfg in
  let arena = Mm.arena mm in
  let conflicts = Atomic.make 0 in
  let oom = Atomic.make 0 in
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         for _ = 1 to rounds do
           match Mm.alloc mm ~tid with
           | p ->
               (* exclusive ownership probe: write our tid, spin a
                  little, then verify it's still ours *)
               Arena.write_data arena p 0 (tid + 1);
               for _ = 1 to 5 do
                 Domain.cpu_relax ()
               done;
               if Arena.read_data arena p 0 <> tid + 1 then
                 Atomic.incr conflicts;
               Mm.release mm ~tid p
           | exception Mm.Out_of_nodes _ -> Atomic.incr oom
         done));
  check_int "no ownership conflicts" 0 (Atomic.get conflicts);
  assert_all_free mm

let deref_stress ~threads ~rounds () =
  let cfg =
    Mm.config ~threads ~capacity:(16 * threads) ~num_links:1 ~num_data:1
      ~num_roots:4 ()
  in
  let mm = mm_of "wfrc" cfg in
  let arena = Mm.arena mm in
  let roots = Array.init 4 (fun i -> Arena.root_addr arena i) in
  Array.iter
    (fun root ->
      let a = Mm.alloc mm ~tid:0 in
      Arena.write_data arena a 0 999;
      Mm.store_link mm ~tid:0 root a;
      Mm.release mm ~tid:0 a)
    roots;
  let dead = Atomic.make 0 in
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         let rng = Sched.Rng.create (31 + tid) in
         for i = 1 to rounds do
           let root = roots.(Sched.Rng.int rng 4) in
           if Sched.Rng.int rng 100 < 70 then begin
             let p = Mm.deref mm ~tid root in
             if not (Value.is_null p) then begin
               let r = Arena.read_mm_ref arena p in
               if r < 2 || r land 1 = 1 then Atomic.incr dead;
               if Arena.read_data arena p 0 < 900 then Atomic.incr dead;
               Mm.release mm ~tid p
             end
           end
           else begin
             match Mm.alloc mm ~tid with
             | b ->
                 Arena.write_data arena b 0 (1000 + (tid * rounds) + i);
                 let old = Mm.deref mm ~tid root in
                 ignore (Mm.cas_link mm ~tid root ~old ~nw:b);
                 if not (Value.is_null old) then Mm.release mm ~tid old;
                 Mm.release mm ~tid b
             | exception Mm.Out_of_nodes _ -> ()
           end
         done));
  check_int "no dead/torn nodes observed" 0 (Atomic.get dead);
  (* drain roots, then everything must be free *)
  Array.iter
    (fun root ->
      let p = Mm.deref mm ~tid:0 root in
      if not (Value.is_null p) then begin
        ignore (Mm.cas_link mm ~tid:0 root ~old:p ~nw:Value.null);
        Mm.release mm ~tid:0 p
      end)
    roots;
  assert_all_free mm

(* Conservation under mixed hold times: threads keep a working set of
   nodes alive across iterations. *)
let working_set_test ~threads ~rounds () =
  let capacity = 32 * threads in
  let cfg =
    Mm.config ~threads ~capacity ~num_links:0 ~num_data:0 ~num_roots:0 ()
  in
  let mm = mm_of "wfrc" cfg in
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         let rng = Sched.Rng.create (77 + tid) in
         let held = ref [] in
         let held_n = ref 0 in
         for _ = 1 to rounds do
           if !held_n < 8 && Sched.Rng.bool rng then (
             match Mm.alloc mm ~tid with
             | p ->
                 held := p :: !held;
                 incr held_n
             | exception Mm.Out_of_nodes _ -> ())
           else
             match !held with
             | [] -> ()
             | p :: rest ->
                 Mm.release mm ~tid p;
                 held := rest;
                 decr held_n
         done;
         List.iter (fun p -> Mm.release mm ~tid p) !held));
  assert_all_free mm

(* Torture the helping path: every thread alternates deref-heavy and
   update-heavy phases against a single hot link. *)
let hot_link_test ~threads ~rounds () =
  let cfg =
    Mm.config ~threads ~capacity:(8 * threads) ~num_links:1 ~num_data:1
      ~num_roots:1 ()
  in
  let mm = mm_of "wfrc" cfg in
  let arena = Mm.arena mm in
  let root = Arena.root_addr arena 0 in
  let a = Mm.alloc mm ~tid:0 in
  Mm.store_link mm ~tid:0 root a;
  Mm.release mm ~tid:0 a;
  ignore
    (Harness.Runner.run ~threads (fun ~tid ->
         for i = 1 to rounds do
           if (i + tid) mod 3 = 0 then begin
             match Mm.alloc mm ~tid with
             | b ->
                 let old = Mm.deref mm ~tid root in
                 ignore (Mm.cas_link mm ~tid root ~old ~nw:b);
                 if not (Value.is_null old) then Mm.release mm ~tid old;
                 Mm.release mm ~tid b
             | exception Mm.Out_of_nodes _ -> ()
           end
           else begin
             let p = Mm.deref mm ~tid root in
             if not (Value.is_null p) then Mm.release mm ~tid p
           end
         done));
  let p = Mm.deref mm ~tid:0 root in
  if not (Value.is_null p) then begin
    ignore (Mm.cas_link mm ~tid:0 root ~old:p ~nw:Value.null);
    Mm.release mm ~tid:0 p
  end;
  assert_all_free mm

let suite =
  [
    tc "churn x2 threads" (churn_test ~threads:2 ~rounds:5_000 ~capacity:64);
    tc "churn x4 threads" (churn_test ~threads:4 ~rounds:3_000 ~capacity:64);
    tc_slow "churn x8 threads, tight memory"
      (churn_test ~threads:8 ~rounds:2_000 ~capacity:16);
    tc "deref/update stress x2" (deref_stress ~threads:2 ~rounds:4_000);
    tc "deref/update stress x4" (deref_stress ~threads:4 ~rounds:2_500);
    tc "working sets conserve nodes x4" (working_set_test ~threads:4 ~rounds:4_000);
    tc "hot link x4" (hot_link_test ~threads:4 ~rounds:3_000);
    tc_slow "hot link x8" (hot_link_test ~threads:8 ~rounds:2_000);
  ]
