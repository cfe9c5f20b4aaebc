(* Single-threaded semantics of the wait-free scheme: reference-count
   bookkeeping of every operation, free-list behaviour, reclamation
   cascades, out-of-memory, the announcement pool, and the Figure 6
   link operations. *)

open Helpers
module Gc = Wfrc.Gc
module Ann = Wfrc.Ann
module Value = Shmem.Value
module Arena = Shmem.Arena

let mk ?help_alloc ?backend ?(threads = 2) ?(capacity = 16) ?(num_links = 2)
    ?(num_data = 1) ?(num_roots = 2) () =
  Gc.create ?help_alloc
    (Mm_intf.config ?backend ~threads ~capacity ~num_links ~num_data
       ~num_roots ())

let refs gc p = Arena.read_mm_ref (Gc.arena gc) p
let total gc ev = Atomics.Counters.total (Gc.counters gc) ev

(* The [annAlloc] cells' contents, as (owner tid, handle). *)
let parked gc = List.sort compare (Gc.custody gc).Mm_intf.pending

(* Nodes in allocator custody, as the instance-level [Mm_intf.free_count]
   reads them. *)
let free_count gc = Mm_intf.count_free (Gc.custody gc)

let alloc_tests =
  [
    tc "fresh manager: all nodes free, validates" (fun () ->
        let gc = mk () in
        Gc.validate gc;
        check_int "free" 16 (free_count gc));
    tc "alloc returns one reference (mm_ref=2)" (fun () ->
        let gc = mk () in
        let p = Gc.alloc gc ~tid:0 in
        check_int "mm_ref" 2 (refs gc p);
        check_int "one fewer free" 15 (free_count gc);
        Gc.validate gc);
    tc "alloc+release is identity on the free set" (fun () ->
        let gc = mk () in
        for _ = 1 to 100 do
          let p = Gc.alloc gc ~tid:0 in
          Gc.release gc ~tid:0 p
        done;
        check_int "free" 16 (free_count gc);
        Gc.validate gc);
    tc "distinct nodes until exhaustion; no double-hand-out" (fun () ->
        let gc = mk ~threads:1 ~capacity:8 () in
        let seen = Hashtbl.create 8 in
        let got = ref [] in
        (try
           for _ = 1 to 9 do
             let p = Gc.alloc gc ~tid:0 in
             let h = Value.handle p in
             if Hashtbl.mem seen h then Alcotest.failf "node %d twice" h;
             Hashtbl.replace seen h ();
             got := p :: !got
           done;
           Alcotest.fail "expected OOM"
         with Mm_intf.Out_of_nodes _ -> ());
        (* single thread: no annAlloc parking possible, all 8 handed out *)
        check_int "all handed out" 8 (List.length !got);
        List.iter (fun p -> Gc.release gc ~tid:0 p) !got;
        check_int "all recovered" 8 (free_count gc);
        Gc.validate gc);
    tc "OOM is repeatable and non-destructive" (fun () ->
        let gc = mk ~threads:1 ~capacity:2 () in
        let a = Gc.alloc gc ~tid:0 and b = Gc.alloc gc ~tid:0 in
        fails_with (fun () -> Gc.alloc gc ~tid:0);
        fails_with (fun () -> Gc.alloc gc ~tid:0);
        Gc.release gc ~tid:0 a;
        let c = Gc.alloc gc ~tid:0 in
        check_int "recycled the freed node" (Value.handle a) (Value.handle c);
        Gc.release gc ~tid:0 b;
        Gc.release gc ~tid:0 c;
        Gc.validate gc);
    tc "fix_ref adjusts and returns the node" (fun () ->
        let gc = mk () in
        let p = Gc.alloc gc ~tid:0 in
        let q = Gc.fix_ref gc p 2 in
        check_int "same node" p q;
        check_int "bumped" 4 (refs gc p);
        Gc.release gc ~tid:0 p;
        check_int "back to one ref" 2 (refs gc p);
        Gc.release gc ~tid:0 p;
        Gc.validate gc);
    tc "free nodes carry mm_ref=1 (list) or 3 (annAlloc donation)" (fun () ->
        let gc = mk () in
        let p = Gc.alloc gc ~tid:0 in
        let h = Value.handle p in
        Gc.release gc ~tid:0 p;
        (* FreeNode either pushes to a free-list (mm_ref = 1) or parks
           the node in its own annAlloc cell (mm_ref = 3, see the
           Figure 5 erratum in DESIGN.md) *)
        let r = refs gc (Value.of_handle h) in
        check_bool (Printf.sprintf "claimed (got %d)" r) true (r = 1 || r = 3));
  ]

let deref_tests =
  [
    tc "deref of null link is null" (fun () ->
        let gc = mk () in
        let root = Arena.root_addr (Gc.arena gc) 0 in
        check_int "null" Value.null (Gc.deref gc ~tid:0 root);
        Gc.validate gc);
    tc "deref acquires a reference; release drops it" (fun () ->
        let gc = mk () in
        let arena = Gc.arena gc in
        let root = Arena.root_addr arena 0 in
        let a = Gc.alloc gc ~tid:0 in
        (* hand-rolled store: link share via fix_ref, per §3.2 *)
        Arena.write arena root (Gc.fix_ref gc a 2);
        check_int "alloc+link" 4 (refs gc a);
        let p = Gc.deref gc ~tid:1 root in
        check_int "same node" (Value.handle a) (Value.handle p);
        check_int "three refs" 6 (refs gc a);
        Gc.release gc ~tid:1 p;
        check_int "two refs" 4 (refs gc a);
        Gc.release gc ~tid:0 a;
        Arena.write arena root Value.null;
        Gc.release gc ~tid:0 a;
        check_int "reclaimed" 16 (free_count gc);
        Gc.validate gc);
    tc "deref returns marked words as stored" (fun () ->
        let gc = mk () in
        let arena = Gc.arena gc in
        let root = Arena.root_addr arena 0 in
        let a = Gc.alloc gc ~tid:0 in
        Arena.write arena root (Value.mark (Gc.fix_ref gc a 2));
        let w = Gc.deref gc ~tid:0 root in
        check_bool "marked" true (Value.is_marked w);
        check_int "same node" (Value.handle a) (Value.handle w);
        check_int "refcount counted on node" 6 (refs gc a);
        Gc.release gc ~tid:0 w;
        Arena.write arena root Value.null;
        Gc.release gc ~tid:0 a;
        Gc.release gc ~tid:0 a;
        Gc.validate gc);
    tc "announcement pool is clean after deref" (fun () ->
        let gc = mk () in
        let root = Arena.root_addr (Gc.arena gc) 0 in
        for _ = 1 to 10 do
          ignore (Gc.deref gc ~tid:0 root)
        done;
        Ann.validate (Gc.announcements gc));
    tc "help_deref with no announcements is a no-op" (fun () ->
        let gc = mk () in
        let root = Arena.root_addr (Gc.arena gc) 0 in
        Gc.help_deref gc ~tid:0 root;
        Gc.validate gc);
    tc "native deref fails like choose_slot when every slot is busy"
      (fun () ->
        let gc = mk ~backend:Atomics.Backend.Native () in
        let ann = Gc.announcements gc in
        Ann.busy_incr ann ~id:0 ~slot:0;
        Ann.busy_incr ann ~id:0 ~slot:1;
        let root = Arena.root_addr (Gc.arena gc) 0 in
        fails_with ~substring:"no free slot" (fun () ->
            Gc.deref gc ~tid:0 root);
        check_int "nothing announced" 0 (Ann.read_slot ann ~id:0 ~slot:0);
        check_int "index untouched" 0 (Ann.read_index ann ~id:0));
    tc "sim: a second deref of a link skips the same-value D2 store"
      (fun () ->
        let gc = mk () in
        let arena = Gc.arena gc and ann = Gc.announcements gc in
        let root = Arena.root_addr arena 0 in
        let a = Gc.alloc gc ~tid:0 in
        Arena.write arena root a;
        (* a helper's claim on slot 0 sends tid 1 to slot 1, off the
           index's initial 0, so the first deref must store it *)
        Ann.busy_incr ann ~id:1 ~slot:0;
        let deref () =
          let steps = ref 0 in
          let p =
            Atomics.Schedpoint.with_hook
              (fun () -> incr steps)
              (fun () -> Gc.deref gc ~tid:1 root)
          in
          check_int "indexed slot 1" 1 (Ann.read_index ann ~id:1);
          Gc.release gc ~tid:1 p;
          !steps
        in
        let first = deref () in
        let second = deref () in
        check_int "one step fewer: the D2 store" (first - 1) second;
        Ann.busy_decr ann ~id:1 ~slot:0;
        Arena.write arena root Value.null;
        Gc.release gc ~tid:0 a;
        check_int "reclaimed" 16 (free_count gc);
        Gc.validate gc);
  ]

let release_tests =
  [
    tc "release cascades through held links (R3)" (fun () ->
        (* a -> b -> c chain via link slots; releasing the last ref on
           a must reclaim all three *)
        let gc = mk ~capacity:8 () in
        let arena = Gc.arena gc in
        let a = Gc.alloc gc ~tid:0 in
        let b = Gc.alloc gc ~tid:0 in
        let c = Gc.alloc gc ~tid:0 in
        Arena.write_link arena a 0 (Gc.fix_ref gc b 2);
        Arena.write_link arena b 0 (Gc.fix_ref gc c 2);
        Gc.release gc ~tid:0 b;
        Gc.release gc ~tid:0 c;
        check_int "only a held by us" 5 (free_count gc);
        Gc.release gc ~tid:0 a;
        check_int "cascade reclaimed all" 8 (free_count gc);
        Gc.validate gc);
    tc "cascade handles long chains without stack overflow" (fun () ->
        (* threads:1 so no node can be parked as a donation to another
           thread while we allocate the full capacity *)
        let n = 20_000 in
        let gc = mk ~threads:1 ~capacity:n ~num_links:1 () in
        let arena = Gc.arena gc in
        let first = Gc.alloc gc ~tid:0 in
        let prev = ref first in
        for _ = 2 to n do
          let x = Gc.alloc gc ~tid:0 in
          Arena.write_link arena !prev 0 (Gc.fix_ref gc x 2);
          Gc.release gc ~tid:0 x;
          prev := x
        done;
        check_int "all allocated" 0 (free_count gc);
        Gc.release gc ~tid:0 first;
        check_int "all reclaimed" n (free_count gc);
        Gc.validate gc);
    tc "release on a multiply-referenced node defers reclamation"
      (fun () ->
        let gc = mk () in
        let p = Gc.alloc gc ~tid:0 in
        ignore (Gc.fix_ref gc p 2);
        ignore (Gc.fix_ref gc p 2);
        Gc.release gc ~tid:0 p;
        Gc.release gc ~tid:0 p;
        check_int "still allocated" 15 (free_count gc);
        Gc.release gc ~tid:0 p;
        check_int "now reclaimed" 16 (free_count gc);
        Gc.validate gc);
    tc "reclaimed node's link slots are cleared" (fun () ->
        let gc = mk ~capacity:4 () in
        let arena = Gc.arena gc in
        let a = Gc.alloc gc ~tid:0 in
        let b = Gc.alloc gc ~tid:0 in
        let ha = Value.handle a in
        Arena.write_link arena a 0 (Gc.fix_ref gc b 2);
        Gc.release gc ~tid:0 b;
        Gc.release gc ~tid:0 a;
        check_int "slots cleared" 0
          (Arena.read_link arena (Value.of_handle ha) 0);
        Gc.validate gc);
  ]

(* The Wfrc (Mm_intf.S) wrapper: Figure 6 semantics. *)
let link_tests =
  [
    tc "store_link moves the link share" (fun () ->
        let cfg = small_cfg () in
        let mm = mm_of "wfrc" cfg in
        let arena = Mm_intf.arena mm in
        let root = Arena.root_addr arena 0 in
        let a = Mm_intf.alloc mm ~tid:0 in
        Mm_intf.store_link mm ~tid:0 root a;
        check_int "us + link" 4 (Arena.read_mm_ref arena a);
        let b = Mm_intf.alloc mm ~tid:0 in
        Mm_intf.store_link mm ~tid:0 root b;
        check_int "a lost the link share" 2 (Arena.read_mm_ref arena a);
        check_int "b gained it" 4 (Arena.read_mm_ref arena b);
        Mm_intf.store_link mm ~tid:0 root Value.null;
        Mm_intf.release mm ~tid:0 a;
        Mm_intf.release mm ~tid:0 b;
        assert_all_free mm);
    tc "cas_link success transfers shares and helps" (fun () ->
        let cfg = small_cfg () in
        let mm = mm_of "wfrc" cfg in
        let arena = Mm_intf.arena mm in
        let root = Arena.root_addr arena 0 in
        let a = Mm_intf.alloc mm ~tid:0 in
        Mm_intf.store_link mm ~tid:0 root a;
        let b = Mm_intf.alloc mm ~tid:0 in
        check_bool "cas ok" true (Mm_intf.cas_link mm ~tid:0 root ~old:a ~nw:b);
        check_int "a: only ours" 2 (Arena.read_mm_ref arena a);
        check_int "b: ours + link" 4 (Arena.read_mm_ref arena b);
        ignore (Mm_intf.cas_link mm ~tid:0 root ~old:b ~nw:Value.null);
        Mm_intf.release mm ~tid:0 a;
        Mm_intf.release mm ~tid:0 b;
        assert_all_free mm);
    tc "cas_link failure changes nothing" (fun () ->
        let cfg = small_cfg () in
        let mm = mm_of "wfrc" cfg in
        let arena = Mm_intf.arena mm in
        let root = Arena.root_addr arena 0 in
        let a = Mm_intf.alloc mm ~tid:0 in
        Mm_intf.store_link mm ~tid:0 root a;
        let b = Mm_intf.alloc mm ~tid:0 in
        check_bool "cas misses" false
          (Mm_intf.cas_link mm ~tid:0 root ~old:b ~nw:b);
        check_int "a untouched" 4 (Arena.read_mm_ref arena a);
        check_int "b untouched" 2 (Arena.read_mm_ref arena b);
        Mm_intf.store_link mm ~tid:0 root Value.null;
        Mm_intf.release mm ~tid:0 a;
        Mm_intf.release mm ~tid:0 b;
        assert_all_free mm);
    tc "copy_ref duplicates a held reference" (fun () ->
        let cfg = small_cfg () in
        let mm = mm_of "wfrc" cfg in
        let arena = Mm_intf.arena mm in
        let a = Mm_intf.alloc mm ~tid:0 in
        let a' = Mm_intf.copy_ref mm ~tid:0 a in
        check_int "same" a a';
        check_int "two refs" 4 (Arena.read_mm_ref arena a);
        Mm_intf.release mm ~tid:0 a;
        Mm_intf.release mm ~tid:0 a';
        assert_all_free mm);
    tc "null is inert through the whole API" (fun () ->
        let cfg = small_cfg () in
        let mm = mm_of "wfrc" cfg in
        Mm_intf.release mm ~tid:0 Value.null;
        check_int "copy null" Value.null
          (Mm_intf.copy_ref mm ~tid:0 Value.null);
        assert_all_free mm);
  ]

(* Direct announcement-pool mechanics. *)
let ann_tests =
  [
    tc "choose_slot returns a busy-free slot" (fun () ->
        let ann = Ann.create ~threads:3 () in
        check_int "first free" 0 (Ann.choose_slot ann ~tid:1);
        Ann.busy_incr ann ~id:1 ~slot:0;
        check_int "skips busy" 1 (Ann.choose_slot ann ~tid:1);
        Ann.busy_decr ann ~id:1 ~slot:0;
        check_int "freed again" 0 (Ann.choose_slot ann ~tid:1));
    tc "choose_slot fails when all slots busy (invariant breach)"
      (fun () ->
        let ann = Ann.create ~threads:2 () in
        Ann.busy_incr ann ~id:0 ~slot:0;
        Ann.busy_incr ann ~id:0 ~slot:1;
        fails_with ~substring:"no free slot" (fun () ->
            Ann.choose_slot ann ~tid:0));
    tc "announce/retract roundtrip" (fun () ->
        let ann = Ann.create ~threads:2 () in
        Ann.set_index ann ~tid:0 1;
        Ann.announce ann ~tid:0 ~slot:1 42;
        check_int "visible" (Value.enc_link 42) (Ann.read_slot ann ~id:0 ~slot:1);
        check_int "index visible" 1 (Ann.read_index ann ~id:0);
        let w = Ann.retract ann ~tid:0 ~slot:1 in
        check_int "got own link back" (Value.enc_link 42) w;
        check_int "cleared" 0 (Ann.read_slot ann ~id:0 ~slot:1));
    tc "answer_cas answers exactly once" (fun () ->
        let ann = Ann.create ~threads:2 () in
        Ann.set_index ann ~tid:0 0;
        Ann.announce ann ~tid:0 ~slot:0 7;
        check_bool "first answer lands" true
          (Ann.answer_cas ann ~id:0 ~slot:0 ~link:7 (Value.of_handle 3));
        check_bool "second answer refused" false
          (Ann.answer_cas ann ~id:0 ~slot:0 ~link:7 (Value.of_handle 4));
        let w = Ann.retract ann ~tid:0 ~slot:0 in
        check_int "owner sees the answer" (Value.of_handle 3) w);
    tc "answer for a different link is refused" (fun () ->
        let ann = Ann.create ~threads:2 () in
        Ann.set_index ann ~tid:0 0;
        Ann.announce ann ~tid:0 ~slot:0 7;
        check_bool "wrong link" false
          (Ann.answer_cas ann ~id:0 ~slot:0 ~link:8 (Value.of_handle 3));
        ignore (Ann.retract ann ~tid:0 ~slot:0));
    tc "validate detects leftover busy" (fun () ->
        let ann = Ann.create ~threads:2 () in
        Ann.busy_incr ann ~id:1 ~slot:0;
        fails_with ~substring:"busy" (fun () -> Ann.validate ann));
  ]

(* FreeNode's own-cell hand-off, on both backends: a free parks the
   node in the freeing thread's own [annAlloc] cell when it is empty,
   and never writes another thread's cell. *)
let own_cell_tests backend =
  let name s = Printf.sprintf "%s (%s)" s (Atomics.Backend.name backend) in
  let mk = mk ~backend in
  [
    tc (name "free parks in the own empty cell; next alloc takes it (A4)")
      (fun () ->
        let gc = mk () in
        let p = Gc.alloc gc ~tid:0 in
        let h = Value.handle p in
        check_bool "own cell empty" true (parked gc = []);
        Gc.release gc ~tid:0 p;
        check_bool "parked in annAlloc[0]" true (parked gc = [ (0, h) ]);
        check_int "parked with the inflation" 3 (refs gc p);
        check_int "counted" 1 (total gc Free_gave_help);
        let helped = total gc Alloc_helped in
        let q = Gc.alloc gc ~tid:0 in
        check_int "same node back" h (Value.handle q);
        check_int "one reference" 2 (refs gc q);
        check_int "through A4" (helped + 1) (total gc Alloc_helped);
        check_bool "cell empty again" true (parked gc = []);
        Gc.release gc ~tid:0 q;
        Gc.validate gc);
    tc (name "own cell full: free pushes, no other cell written") (fun () ->
        let gc = mk () in
        let a = Gc.alloc gc ~tid:0 and b = Gc.alloc gc ~tid:0 in
        Gc.release gc ~tid:0 a;
        let before = parked gc in
        check_bool "own cell holds a" true
          (List.mem (0, Value.handle a) before);
        Gc.release gc ~tid:0 b;
        check_bool "no annAlloc cell changed" true (parked gc = before);
        check_int "b claimed on a free list" 1 (refs gc b);
        check_bool "b on a free chain" true
          (Gc.custody gc).Mm_intf.free.(Value.handle b);
        check_int "one park" 1 (total gc Free_gave_help);
        Gc.validate gc);
    tc (name "help_alloc:false never writes an annAlloc cell") (fun () ->
        let gc = mk ~help_alloc:false ~capacity:8 () in
        for round = 1 to 4 do
          let held =
            List.init round (fun i -> (i mod 2, Gc.alloc gc ~tid:(i mod 2)))
          in
          check_bool "no cell after allocs" true (parked gc = []);
          List.iter (fun (tid, p) -> Gc.release gc ~tid p) held;
          check_bool "no cell after frees" true (parked gc = [])
        done;
        check_int "no A4 hit" 0 (total gc Alloc_helped);
        check_int "no A12 donation" 0 (total gc Alloc_gave_help);
        check_int "no park" 0 (total gc Free_gave_help);
        check_int "recovered" 8 (free_count gc);
        Gc.validate gc);
  ]

(* Steady-state churn is thread-local: once each thread's first
   allocation has gone through the free-lists (where A11-A12 may
   donate, counted as an A15 retry), every alloc takes back the node
   its own previous free parked, so no interleaving produces a
   free-list CAS failure or an A3 retry. *)
let steady_churn_tests =
  [
    tc "sim: 2-thread alloc/release pairs make no A3 or F7 retries"
      (fun () ->
        for seed = 1 to 20 do
          let gc = mk ~num_links:0 ~num_roots:0 () in
          for tid = 0 to 1 do
            Gc.release gc ~tid (Gc.alloc gc ~tid)
          done;
          Atomics.Counters.reset (Gc.counters gc);
          ignore
            (Sched.Engine.run ~threads:2
               ~policy:(Sched.Policy.random ~seed)
               (fun tid ->
                 for _ = 1 to 25 do
                   Gc.release gc ~tid (Gc.alloc gc ~tid)
                 done));
          check_int "allocs" 50 (total gc Alloc);
          check_int "Alloc_retry" 0 (total gc Alloc_retry);
          check_int "Free_retry" 0 (total gc Free_retry);
          check_int "every alloc through A4" 50 (total gc Alloc_helped);
          check_int "every free parked" 50 (total gc Free_gave_help);
          Gc.validate gc
        done);
  ]

let ablation_tests =
  [
    tc "help_alloc:false still allocates correctly" (fun () ->
        let gc =
          Gc.create ~help_alloc:false
            (Mm_intf.config ~threads:2 ~capacity:8 ~num_links:0 ~num_data:0
               ~num_roots:0 ())
        in
        let ps = List.init 8 (fun _ -> Gc.alloc gc ~tid:0) in
        check_int "all distinct" 8
          (List.length (List.sort_uniq compare ps));
        List.iter (fun p -> Gc.release gc ~tid:0 p) ps;
        check_int "recovered" 8 (free_count gc);
        Gc.validate gc);
  ]

let prop_tests =
  [
    qc ~count:50 "random alloc/release interleavings conserve nodes"
      QCheck.(list (int_range 0 2))
      (fun script ->
        let gc = mk ~threads:1 ~capacity:8 ~num_links:1 () in
        let held = ref [] in
        List.iter
          (fun op ->
            match op with
            | 0 -> (
                try held := Gc.alloc gc ~tid:0 :: !held
                with Mm_intf.Out_of_nodes _ -> ())
            | _ -> (
                match !held with
                | [] -> ()
                | p :: rest ->
                    Gc.release gc ~tid:0 p;
                    held := rest))
          script;
        List.iter (fun p -> Gc.release gc ~tid:0 p) !held;
        Gc.validate gc;
        free_count gc = 8);
    qc ~count:50 "random link graphs are fully reclaimed"
      QCheck.(list (pair (int_range 0 7) (int_range 0 7)))
      (fun edges ->
        (* build arbitrary link graphs among 8 nodes (cycles allowed
           only as DAG here: only link lower -> higher to avoid
           unreclaimable cycles, a documented limitation of RC) *)
        let gc = mk ~threads:1 ~capacity:8 ~num_links:2 () in
        let arena = Gc.arena gc in
        let nodes = Array.init 8 (fun _ -> Gc.alloc gc ~tid:0) in
        let next_slot = Array.make 8 0 in
        List.iter
          (fun (i, j) ->
            if i < j && next_slot.(i) < 2 then begin
              Arena.write_link arena nodes.(i) next_slot.(i)
                (Gc.fix_ref gc nodes.(j) 2);
              next_slot.(i) <- next_slot.(i) + 1
            end)
          edges;
        Array.iter (fun p -> Gc.release gc ~tid:0 p) nodes;
        Gc.validate gc;
        free_count gc = 8);
  ]

let suite =
  alloc_tests @ deref_tests @ release_tests @ link_tests @ ann_tests
  @ own_cell_tests Atomics.Backend.Sim
  @ own_cell_tests Atomics.Backend.Native
  @ steady_churn_tests @ ablation_tests @ prop_tests
